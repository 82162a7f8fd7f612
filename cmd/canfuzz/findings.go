package main

import (
	"repro/internal/can"
	"repro/internal/core"
	"repro/internal/findings"
	"repro/internal/fleet"
	"repro/internal/guided"

	targetPkg "repro/internal/target"
)

// specContext maps the CLI world inputs onto the findings identity
// context — the half of a record's key the trigger frames cannot carry.
func specContext(spec targetPkg.Spec, chaos string) findings.Context {
	return findings.Context{
		Target:   spec.Target,
		Bus:      spec.Bus,
		BCMCheck: targetPkg.CheckModeName(spec.Check),
		Recovery: spec.Recovery,
		Chaos:    chaos,
	}
}

// mergeRunFindings folds a single-run campaign's findings into the
// database at dir: the minimizer's structured record for the finding it
// reproduced (the highest-quality shape, with the canreplay log path as
// provenance) and findings.FromFinding records for the rest.
func mergeRunFindings(dir string, spec targetPkg.Spec, cfg core.Config, chaos string,
	campaign *core.Campaign, minimized *core.MinimizedTrigger, replayLog string) (int, error) {
	db, err := findings.Open(dir)
	if err != nil {
		return 0, err
	}
	ctx := specContext(spec, chaos)
	gcfg := campaign.Generator().Config() // defaulted config: real interval/mode
	prov := findings.Provenance{Source: "canfuzz", Mode: gcfg.Mode.String()}

	var recs []findings.Record
	observed := campaign.Findings()
	if minimized != nil {
		p := prov
		p.ReplayLog = replayLog
		// The settle is the one the minimizer confirmed the trigger under.
		recs = append(recs, findings.FromMinimized(minimized, ctx, gcfg.Seed,
			gcfg.Interval, guided.ReplaySettle, p))
		// The minimizer covered the first finding; keep the rest raw.
		if len(observed) > 0 {
			observed = observed[1:]
		}
	}
	for _, f := range observed {
		frames := make([]string, 0, len(f.Recent))
		for _, fr := range f.Recent {
			frames = append(frames, string(can.AppendFrame(nil, fr)))
		}
		if rec, ok := findings.FromFinding(f.Verdict.Oracle, f.Verdict.Detail, frames,
			ctx, gcfg, gcfg.Seed, f.Elapsed, prov); ok {
			recs = append(recs, rec)
		}
	}
	return db.MergeAll(recs)
}

// mergeFleetFindings folds a fleet report's finding trials into the
// database at dir (fleet mode never carries a chaos plan — the CLI rejects
// the combination).
func mergeFleetFindings(dir string, spec targetPkg.Spec, cfg core.Config, rep *fleet.Report) (int, error) {
	db, err := findings.Open(dir)
	if err != nil {
		return 0, err
	}
	ctx := specContext(spec, "")
	mode := "random"
	if cfg.Mode != 0 {
		mode = cfg.Mode.String()
	}
	prov := findings.Provenance{Source: "canfuzz-fleet", Mode: mode}
	return db.MergeAll(findings.FromFleetReport(rep, ctx, cfg, prov))
}
