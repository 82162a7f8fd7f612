package findings

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/campaignd"
	"repro/internal/core"
	"repro/internal/fleet"
)

// Context pins the world a finding was observed in — the identity half a
// trigger alone cannot carry.
type Context struct {
	Target   string
	Bus      string
	BCMCheck string
	Recovery bool
	Chaos    string
}

// Provenance records where a finding came from: the reporting tool or
// pipeline stage, the campaign identifier when one exists, the generation
// mode, and a canreplay log path when one was written.
type Provenance struct {
	Source    string
	Campaign  string
	Mode      string
	ReplayLog string
}

// apply stamps provenance onto a record.
func (p Provenance) apply(rec *Record) {
	if p.Source != "" {
		rec.Sources = []string{p.Source}
	}
	if p.Campaign != "" {
		rec.Campaigns = []string{p.Campaign}
	}
	rec.Mode = p.Mode
	rec.ReplayLog = p.ReplayLog
}

// FromMinimized converts a minimizer reproducer into a trigger record —
// the highest-quality record shape: the frames are already minimal and
// were confirmed under the stored pacing.
func FromMinimized(t *core.MinimizedTrigger, ctx Context, seed int64, interval, settle time.Duration, prov Provenance) Record {
	rec := FromTrigger(t.Oracle, t.Detail, t.Frames, ctx, seed, interval, prov)
	rec.SettleMillis = int64(settle / time.Millisecond)
	return rec
}

// FromTrigger builds a trigger record from a raw (unminimized) trigger
// window in corpus "ID#HEXDATA" form, oldest first.
func FromTrigger(oracleName, detail string, frames []string, ctx Context, seed int64, interval time.Duration, prov Provenance) Record {
	rec := Record{
		Oracle:         oracleName,
		Detail:         detail,
		Target:         ctx.Target,
		Bus:            ctx.Bus,
		BCMCheck:       ctx.BCMCheck,
		Chaos:          ctx.Chaos,
		Trigger:        append([]string(nil), frames...),
		Seed:           seed,
		IntervalMicros: int64(interval / time.Microsecond),
		Recovery:       ctx.Recovery,
	}
	prov.apply(&rec)
	return rec
}

// FromGenerator builds a generator record for an environmental finding —
// one whose cause is the generator/chaos interplay rather than a specific
// frame sequence (the dead-bus watchdog under a jam plan is the canonical
// case). Replay re-runs the full generator configuration under the
// recorded chaos plan until the deadline.
func FromGenerator(oracleName, detail string, ctx Context, cfg core.Config, seed int64, deadline time.Duration, prov Provenance) Record {
	cfg.Seed = seed
	cj := cfg.ToJSON()
	rec := Record{
		Oracle:         oracleName,
		Detail:         detail,
		Target:         ctx.Target,
		Bus:            ctx.Bus,
		BCMCheck:       ctx.BCMCheck,
		Chaos:          ctx.Chaos,
		Seed:           seed,
		DeadlineMillis: int64(deadline / time.Millisecond),
		Config:         &cj,
		Recovery:       ctx.Recovery,
	}
	prov.apply(&rec)
	return rec
}

// GeneratorFinding reports whether a finding must be stored as a generator
// record: watchdog findings fire from bus silence (replaying the preceding
// frames cannot re-create the silence), and any finding observed under a
// chaos plan may depend on the injected faults, which frame playback alone
// does not reproduce.
func GeneratorFinding(ctx Context, oracleName string) bool {
	return ctx.Chaos != "" || oracleName == "watchdog"
}

// FromFinding turns one observed finding into a record that replays. The
// finding fired at elapsed into a run of cfg under seed; frames is its
// trigger window in corpus form. Environmental findings (GeneratorFinding)
// are stored as generator records. Otherwise the trigger record is kept
// when one replay of its window alone passes; when the finding depends on
// state older than the window, the generator record (the seeded run up to
// one second past the finding) is stored instead. ok is false for a
// non-environmental finding without a window.
func FromFinding(oracleName, detail string, frames []string, ctx Context, cfg core.Config,
	seed int64, elapsed time.Duration, prov Provenance) (Record, bool) {
	gen := FromGenerator(oracleName, detail, ctx, cfg, seed, elapsed+time.Second, prov)
	if GeneratorFinding(ctx, oracleName) {
		return gen, true
	}
	if len(frames) == 0 {
		return Record{}, false
	}
	rec := FromTrigger(oracleName, detail, frames, ctx, seed, cfg.Interval, prov)
	if ReplayRecord(rec, 1, Overrides{}).Outcome != OutcomePass {
		return gen, true
	}
	return rec, true
}

// FromTrialResult converts one fleet trial outcome into a record through
// FromFinding. cfg is the fleet's base generator configuration (the
// trial's own seed is substituted). ok is false for non-finding trials and
// finding trials without enough material to replay.
func FromTrialResult(tr fleet.TrialResult, ctx Context, cfg core.Config, prov Provenance) (Record, bool) {
	if tr.Status != fleet.StatusFinding || tr.Oracle == "" {
		return Record{}, false
	}
	return FromFinding(tr.Oracle, tr.Detail, tr.TriggerFrames, ctx, cfg, tr.Seed, tr.TimeToFinding, prov)
}

// FromFleetReport extracts a record per finding trial of a fleet report.
func FromFleetReport(rep *fleet.Report, ctx Context, cfg core.Config, prov Provenance) []Record {
	var recs []Record
	for _, tr := range rep.Results {
		if rec, ok := FromTrialResult(tr, ctx, cfg, prov); ok {
			recs = append(recs, rec)
		}
	}
	return recs
}

// ContextFromCampaignSpec derives the findings context from a distributed
// campaign spec. Chaos plans are not part of the wire spec, so Chaos stays
// empty.
func ContextFromCampaignSpec(spec campaignd.CampaignSpec) Context {
	return Context{
		Target:   spec.Target,
		Bus:      spec.Bus,
		BCMCheck: spec.BCMCheck,
		Recovery: spec.Recovery,
	}
}

// FromCampaignSpec extracts records from a distributed campaign's results
// map (a campaign journal or a finished lease book), in trial-index order.
func FromCampaignSpec(spec campaignd.CampaignSpec, results map[int]fleet.TrialResult, prov Provenance) ([]Record, error) {
	cfg, err := spec.Config.ToConfig()
	if err != nil {
		return nil, fmt.Errorf("findings: campaign spec config: %w", err)
	}
	ctx := ContextFromCampaignSpec(spec)
	if prov.Mode == "" {
		prov.Mode = spec.Config.Mode
	}
	idx := make([]int, 0, len(results))
	for i := range results {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	var recs []Record
	for _, i := range idx {
		if rec, ok := FromTrialResult(results[i], ctx, cfg, prov); ok {
			recs = append(recs, rec)
		}
	}
	return recs, nil
}

// FromDataDir scans a campaign service data directory (one subdirectory
// per campaign, each holding an events.jsonl journal) and extracts records
// from every readable campaign, using the subdirectory name as the
// campaign identifier. Journals are read under campaignd.LoadJournal's
// recovery rule, so a trial whose result line is still being appended is
// not counted; unreadable journals are skipped — a service directory
// legitimately contains campaigns mid-flight.
func FromDataDir(dir string) ([]Record, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("findings: %w", err)
	}
	var recs []Record
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name(), "events.jsonl")
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		j, err := campaignd.LoadJournal(f)
		f.Close()
		if err != nil || j.Spec == nil {
			continue
		}
		sub, err := FromCampaignSpec(*j.Spec, j.Results, Provenance{
			Source: "campsrv", Campaign: e.Name(),
		})
		if err != nil {
			continue
		}
		recs = append(recs, sub...)
	}
	return recs, nil
}
