// The fleet suite lives in an external test package: testbench (used by
// the factories here) imports internal/guided, which imports fleet for its
// minimizer worlds — an in-package test would close that cycle.
package fleet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bcm"
	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/signal"
	"repro/internal/testbench"
)

// unlockFactory builds the Table V bench world per trial, targeted at the
// command identifier so each trial finds the unlock within virtual
// seconds.
func unlockFactory(check bcm.CheckMode) fleet.TargetFactory {
	return func(spec fleet.TrialSpec) (*fleet.World, error) {
		exp, err := testbench.NewUnlockExperiment(testbench.Config{Check: check},
			core.Config{Seed: spec.Seed, TargetIDs: []can.ID{signal.IDBodyCommand}})
		if err != nil {
			return nil, err
		}
		return &fleet.World{Sched: exp.Bench.Scheduler(), Campaign: exp.Campaign}, nil
	}
}

// idleFactory builds a world whose campaign has no oracle: every trial
// times out.
func idleFactory(spec fleet.TrialSpec) (*fleet.World, error) {
	sched := clock.New()
	b := bus.New(sched)
	campaign, err := core.NewCampaign(sched, b.Connect("fuzzer"), core.Config{Seed: spec.Seed})
	if err != nil {
		return nil, err
	}
	return &fleet.World{Sched: sched, Campaign: campaign}, nil
}

func mustRun(t *testing.T, cfg fleet.Config, factory fleet.TargetFactory) *fleet.Report {
	t.Helper()
	rep, err := fleet.Run(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// hangFactory builds a world whose scheduler never advances virtual time: a
// zero-delay event rearms itself at the same instant, so RunUntilFinding's
// virtual deadline never fires. Only the wall-clock TrialTimeout can stop it.
func hangFactory(spec fleet.TrialSpec) (*fleet.World, error) {
	sched := clock.New()
	b := bus.New(sched)
	campaign, err := core.NewCampaign(sched, b.Connect("fuzzer"), core.Config{Seed: spec.Seed})
	if err != nil {
		return nil, err
	}
	var spin func()
	spin = func() { sched.After(0, spin) }
	sched.After(0, spin)
	return &fleet.World{Sched: sched, Campaign: campaign}, nil
}

func TestFleetDeterministicAcrossWorkerCounts(t *testing.T) {
	// The acceptance criterion: the same fleet serialises byte-identically
	// at workers=1 and workers=NumCPU.
	cfg := fleet.Config{Trials: 12, BaseSeed: 7, MaxPerTrial: 30 * time.Minute}
	cfg.Workers = 1
	seq := mustRun(t, cfg, unlockFactory(bcm.CheckByteOnly))
	cfg.Workers = runtime.NumCPU()
	par := mustRun(t, cfg, unlockFactory(bcm.CheckByteOnly))

	var a, b bytes.Buffer
	if err := seq.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := par.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("fleet report differs between workers=1 and workers=%d:\n--- seq ---\n%s\n--- par ---\n%s",
			runtime.NumCPU(), a.String(), b.String())
	}
}

func TestFleetResultsOrderedByTrialIndex(t *testing.T) {
	rep := mustRun(t, fleet.Config{Trials: 8, BaseSeed: 3, MaxPerTrial: 30 * time.Minute, Workers: 4},
		unlockFactory(bcm.CheckByteOnly))
	if len(rep.Results) != 8 {
		t.Fatalf("results = %d, want 8", len(rep.Results))
	}
	for i, tr := range rep.Results {
		if tr.Trial != i {
			t.Fatalf("result %d has trial index %d", i, tr.Trial)
		}
		if want := faults.DeriveSeed(3, i); tr.Seed != want {
			t.Fatalf("trial %d seed = %d, want DeriveSeed = %d", i, tr.Seed, want)
		}
		if tr.Status != fleet.StatusFinding {
			t.Fatalf("trial %d status = %q", i, tr.Status)
		}
		if tr.TimeToFinding <= 0 || tr.FramesSent == 0 {
			t.Fatalf("trial %d missing counters: %+v", i, tr)
		}
	}
}

func TestFleetAggregationAndStats(t *testing.T) {
	rep := mustRun(t, fleet.Config{Trials: 10, BaseSeed: 11, MaxPerTrial: 30 * time.Minute, Workers: 4},
		unlockFactory(bcm.CheckByteOnly))
	if rep.FoundFindings != 10 || rep.Completed != 10 {
		t.Fatalf("found/completed = %d/%d", rep.FoundFindings, rep.Completed)
	}
	// Every trial trips the same oracle on the same command identifier, so
	// the dedup collapses the fleet's findings.
	if len(rep.Findings) != 1 {
		t.Fatalf("aggregated findings = %d, want 1: %+v", len(rep.Findings), rep.Findings)
	}
	agg := rep.Findings[0]
	if agg.Oracle != "unlock-ack" || agg.Count != 10 || agg.TriggerID != "215" {
		t.Fatalf("aggregated finding = %+v", agg)
	}
	ttf := rep.TimeToFinding
	if ttf == nil || ttf.Samples != 10 {
		t.Fatalf("time-to-finding stats missing: %+v", ttf)
	}
	if ttf.Min <= 0 || ttf.Min > ttf.Median || ttf.Median > ttf.Max || ttf.P95 > ttf.Max {
		t.Fatalf("inconsistent distribution: %+v", ttf)
	}
	var binned uint64
	for _, b := range ttf.Histogram {
		binned += b.Count
	}
	if binned != 10 {
		t.Fatalf("histogram holds %d of 10 samples", binned)
	}
	if rep.Telemetry == nil || !strings.Contains(string(rep.Telemetry), "fleet_time_to_finding_seconds") {
		t.Fatalf("merged telemetry snapshot missing: %s", rep.Telemetry)
	}
}

func TestFleetTimeout(t *testing.T) {
	rep := mustRun(t, fleet.Config{Trials: 3, BaseSeed: 1, MaxPerTrial: 100 * time.Millisecond, Workers: 2},
		idleFactory)
	if rep.TimedOut != 3 || rep.FoundFindings != 0 {
		t.Fatalf("timedOut/found = %d/%d", rep.TimedOut, rep.FoundFindings)
	}
	if rep.TimeToFinding != nil {
		t.Fatal("no findings should mean no time-to-finding stats")
	}
	for _, tr := range rep.Results {
		if tr.Status != fleet.StatusTimeout || tr.FramesSent == 0 {
			t.Fatalf("trial %+v", tr)
		}
	}
}

func TestFleetTrialTimeoutStalled(t *testing.T) {
	// A world stuck in a same-instant event loop never advances virtual
	// time, so only the wall-clock TrialTimeout can reclaim its worker. The
	// trial must come back promptly, classified as stalled — not timeout,
	// which is reserved for the virtual deadline.
	start := time.Now()
	rep := mustRun(t, fleet.Config{
		Trials: 2, BaseSeed: 9, Workers: 2,
		MaxPerTrial:  time.Hour,
		TrialTimeout: 50 * time.Millisecond,
	}, hangFactory)
	if wall := time.Since(start); wall > 10*time.Second {
		t.Fatalf("stalled trials took %v to cancel", wall)
	}
	if rep.Stalled != 2 || rep.TimedOut != 0 || rep.FoundFindings != 0 {
		t.Fatalf("stalled/timedOut/found = %d/%d/%d", rep.Stalled, rep.TimedOut, rep.FoundFindings)
	}
	for _, tr := range rep.Results {
		if tr.Status != fleet.StatusStalled {
			t.Fatalf("trial %+v", tr)
		}
	}
	if !strings.Contains(string(rep.Telemetry), `"stalled"`) {
		t.Fatalf("stalled counter missing from telemetry:\n%s", rep.Telemetry)
	}
}

func TestRunTrialMatchesFleetRun(t *testing.T) {
	// RunTrial + NewReport is the distributed decomposition of Run: feeding
	// the per-trial results back through the aggregator must reproduce the
	// in-process report byte for byte (modulo the wall-only Workers field).
	cfg := fleet.Config{Trials: 6, BaseSeed: 21, MaxPerTrial: 30 * time.Minute, Workers: 3}
	whole := mustRun(t, cfg, unlockFactory(bcm.CheckByteOnly))

	results := make([]fleet.TrialResult, cfg.Trials)
	for i := range results {
		spec := fleet.TrialSpec{Index: i, Seed: faults.DeriveSeed(cfg.BaseSeed, i)}
		results[i] = fleet.RunTrial(spec, cfg, unlockFactory(bcm.CheckByteOnly))
	}
	rebuilt := fleet.NewReport(cfg.BaseSeed, cfg.MaxPerTrial, results)

	var a, b bytes.Buffer
	if err := whole.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("RunTrial+NewReport diverges from Run:\n--- run ---\n%s\n--- rebuilt ---\n%s",
			a.String(), b.String())
	}
}

// resettableFactory is unlockFactory with a Reset hook whose behaviour the
// caller picks: "ok" resets in place, "error" and "panic" fail, "none"
// leaves the hook nil. builds counts the factory calls.
func resettableFactory(reset string, builds *int) fleet.TargetFactory {
	return func(spec fleet.TrialSpec) (*fleet.World, error) {
		*builds++
		exp, err := testbench.NewUnlockExperiment(testbench.Config{Check: bcm.CheckByteOnly},
			core.Config{Seed: spec.Seed, TargetIDs: []can.ID{signal.IDBodyCommand}})
		if err != nil {
			return nil, err
		}
		w := &fleet.World{Sched: exp.Bench.Scheduler(), Campaign: exp.Campaign}
		switch reset {
		case "ok":
			w.Reset = func(ts fleet.TrialSpec) error { exp.Reset(ts.Seed); return nil }
		case "error":
			w.Reset = func(fleet.TrialSpec) error { return fmt.Errorf("reset refused") }
		case "panic":
			w.Reset = func(fleet.TrialSpec) error { panic("reset exploded") }
		}
		return w, nil
	}
}

func TestWorldPoolRunTrial(t *testing.T) {
	// A pool recycles one world across sequential trials; a reset that
	// fails or panics, or a world without a Reset hook, falls back to the
	// factory. Every way, each result equals the cold RunTrial's.
	const trials = 5
	cfg := fleet.Config{MaxPerTrial: 30 * time.Minute}
	specs := make([]fleet.TrialSpec, trials)
	cold := make([][]byte, trials)
	for i := range specs {
		specs[i] = fleet.TrialSpec{Index: i, Seed: faults.DeriveSeed(21, i)}
		cold[i] = trialJSON(t, fleet.RunTrial(specs[i], cfg, unlockFactory(bcm.CheckByteOnly)))
	}
	for _, tc := range []struct {
		reset      string
		wantBuilds int
		wantPooled int
	}{
		{"ok", 1, 1},
		{"error", trials, 1},
		{"panic", trials, 1},
		{"none", trials, 0},
	} {
		t.Run(tc.reset, func(t *testing.T) {
			builds := 0
			factory := resettableFactory(tc.reset, &builds)
			pool := &fleet.WorldPool{}
			for i, spec := range specs {
				if got := trialJSON(t, pool.RunTrial(spec, cfg, factory)); !bytes.Equal(got, cold[i]) {
					t.Fatalf("trial %d: pooled result differs from cold\npooled: %s\ncold:   %s", i, got, cold[i])
				}
			}
			if builds != tc.wantBuilds || pool.Len() != tc.wantPooled {
				t.Fatalf("factory calls %d, pooled worlds %d; want %d, %d",
					builds, pool.Len(), tc.wantBuilds, tc.wantPooled)
			}
		})
	}

	// A trial that panics poisons its world: it is not put back.
	pool := &fleet.WorldPool{}
	res := pool.RunTrial(specs[0], cfg, func(spec fleet.TrialSpec) (*fleet.World, error) {
		w, err := idleFactory(spec)
		if err != nil {
			return nil, err
		}
		w.Reset = func(fleet.TrialSpec) error { return nil }
		w.Sched.After(0, func() { panic("trial exploded") })
		return w, nil
	})
	if res.Status != fleet.StatusPanic || pool.Len() != 0 {
		t.Fatalf("panicking trial: status %s, pooled worlds %d; want panic, 0", res.Status, pool.Len())
	}
}

// trialJSON serialises a result as the service journal does.
func trialJSON(t *testing.T, res fleet.TrialResult) []byte {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFleetPanicIsolation(t *testing.T) {
	// Odd trials panic mid-construction; even trials complete normally. A
	// crashed trial must become a classified result, not a dead fleet.
	factory := func(spec fleet.TrialSpec) (*fleet.World, error) {
		if spec.Index%2 == 1 {
			panic(fmt.Sprintf("trial %d exploded", spec.Index))
		}
		return unlockFactory(bcm.CheckByteOnly)(spec)
	}
	rep := mustRun(t, fleet.Config{Trials: 6, BaseSeed: 5, MaxPerTrial: 30 * time.Minute, Workers: 3},
		factory)
	if rep.Panics != 3 || rep.FoundFindings != 3 {
		t.Fatalf("panics/found = %d/%d", rep.Panics, rep.FoundFindings)
	}
	for i, tr := range rep.Results {
		if i%2 == 1 {
			if tr.Status != fleet.StatusPanic || !strings.Contains(tr.PanicValue, fmt.Sprintf("trial %d exploded", i)) {
				t.Fatalf("trial %d: %+v", i, tr)
			}
		} else if tr.Status != fleet.StatusFinding {
			t.Fatalf("trial %d: %+v", i, tr)
		}
	}
}

func TestFleetFactoryError(t *testing.T) {
	factory := func(spec fleet.TrialSpec) (*fleet.World, error) {
		if spec.Index == 1 {
			return nil, fmt.Errorf("no world for trial %d", spec.Index)
		}
		return idleFactory(spec)
	}
	rep := mustRun(t, fleet.Config{Trials: 2, BaseSeed: 1, MaxPerTrial: 50 * time.Millisecond}, factory)
	if rep.Errors != 1 {
		t.Fatalf("errors = %d", rep.Errors)
	}
	if tr := rep.Results[1]; tr.Status != fleet.StatusError || !strings.Contains(tr.Err, "no world for trial 1") {
		t.Fatalf("trial 1: %+v", tr)
	}
}

func TestFleetNilWorldClassified(t *testing.T) {
	rep := mustRun(t, fleet.Config{Trials: 1, BaseSeed: 1, MaxPerTrial: time.Second},
		func(fleet.TrialSpec) (*fleet.World, error) { return nil, nil })
	if rep.Results[0].Status != fleet.StatusError {
		t.Fatalf("nil world: %+v", rep.Results[0])
	}
}

func TestFleetFailFast(t *testing.T) {
	// Serial workers with fail-fast: trial 0 finds, so later trials are
	// never dispatched.
	rep := mustRun(t, fleet.Config{
		Trials: 64, BaseSeed: 7, Workers: 1,
		MaxPerTrial: 30 * time.Minute, FailFast: true,
	}, unlockFactory(bcm.CheckByteOnly))
	if rep.FoundFindings < 1 {
		t.Fatal("fail-fast fleet found nothing")
	}
	if rep.Skipped == 0 {
		t.Fatal("fail-fast did not skip any trials")
	}
	var accounted int
	for _, tr := range rep.Results {
		if tr.Status != "" {
			accounted++
		}
	}
	if accounted != 64 {
		t.Fatalf("only %d of 64 trials accounted for", accounted)
	}
	if rep.Completed+rep.Skipped != 64 {
		t.Fatalf("completed %d + skipped %d != 64", rep.Completed, rep.Skipped)
	}
}

func TestFleetConfigValidation(t *testing.T) {
	if _, err := fleet.Run(fleet.Config{Trials: 0, MaxPerTrial: time.Second}, idleFactory); err != fleet.ErrNoTrials {
		t.Fatalf("Trials=0: %v", err)
	}
	if _, err := fleet.Run(fleet.Config{Trials: 1}, idleFactory); err != fleet.ErrNoDeadline {
		t.Fatalf("MaxPerTrial=0: %v", err)
	}
	if _, err := fleet.Run(fleet.Config{Trials: 1, MaxPerTrial: time.Second}, nil); err != fleet.ErrNilFactory {
		t.Fatalf("nil factory: %v", err)
	}
}

func TestFleetProgressLogging(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	mustRun(t, fleet.Config{
		Trials: 4, BaseSeed: 2, Workers: 2,
		MaxPerTrial: 30 * time.Minute, Logger: logger, LogEvery: 2,
	}, unlockFactory(bcm.CheckByteOnly))
	out := buf.String()
	if !strings.Contains(out, "fleet progress") || !strings.Contains(out, "total=4") {
		t.Fatalf("progress log missing: %q", out)
	}
	if !strings.Contains(out, "trials_per_sec") {
		t.Fatalf("progress log lacks throughput: %q", out)
	}
}

// faultyUnlockFactory is unlockFactory with a bus-level fault plan armed
// in every trial world: the chaos campaign run at fleet scale.
func faultyUnlockFactory(check bcm.CheckMode, planSpec string) fleet.TargetFactory {
	return func(spec fleet.TrialSpec) (*fleet.World, error) {
		exp, err := testbench.NewUnlockExperiment(testbench.Config{Check: check},
			core.Config{Seed: spec.Seed, TargetIDs: []can.ID{signal.IDBodyCommand}})
		if err != nil {
			return nil, err
		}
		plan, err := faults.ParsePlan(planSpec)
		if err != nil {
			return nil, err
		}
		inj := faults.New(exp.Bench.Scheduler(), plan)
		inj.AttachBus(exp.Bench.Bus)
		if err := inj.Start(); err != nil {
			return nil, err
		}
		return &fleet.World{Sched: exp.Bench.Scheduler(), Campaign: exp.Campaign}, nil
	}
}

func TestFleetFaultPlanDeterminismAndAssociativity(t *testing.T) {
	// The merged telemetry snapshot (and the whole report) must stay
	// byte-identical across worker counts even when every trial world runs
	// a fault plan: injected chaos is part of each trial's deterministic
	// simulation, not a source of cross-trial nondeterminism.
	// The targeted unlock lands within ~400 virtual ms, so the corrupting
	// window opens immediately and outlasts the clean time-to-finding,
	// forcing every trial through the chaos.
	const planSpec = "seed=1;corrupt(p=1,at=1ms,for=5s);drop(p=0.5,at=5s,for=2s)"
	cfg := fleet.Config{Trials: 8, BaseSeed: 21, MaxPerTrial: 30 * time.Minute}

	cfg.Workers = 1
	seq := mustRun(t, cfg, faultyUnlockFactory(bcm.CheckByteOnly, planSpec))
	cfg.Workers = runtime.NumCPU()
	par := mustRun(t, cfg, faultyUnlockFactory(bcm.CheckByteOnly, planSpec))

	var a, b bytes.Buffer
	if err := seq.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := par.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("faulted fleet report differs between workers=1 and workers=%d:\n--- seq ---\n%s\n--- par ---\n%s",
			runtime.NumCPU(), a.String(), b.String())
	}
	if seq.Telemetry == nil || !bytes.Equal(seq.Telemetry, par.Telemetry) {
		t.Fatal("merged telemetry snapshots differ across worker counts under a fault plan")
	}

	// Associativity: the merged counters are the fold of the per-trial
	// results, independent of merge order.
	var frames, sendErrors uint64
	var virtual time.Duration
	findings := 0
	for _, tr := range seq.Results {
		frames += tr.FramesSent
		sendErrors += tr.SendErrors
		virtual += tr.VirtualElapsed
		if tr.Status == fleet.StatusFinding {
			findings++
		}
	}
	if frames != seq.FramesSent || sendErrors != seq.SendErrors {
		t.Errorf("merged counters not the per-trial sum: frames %d vs %d, sendErrors %d vs %d",
			seq.FramesSent, frames, seq.SendErrors, sendErrors)
	}
	if virtual != seq.VirtualTimeTotal {
		t.Errorf("virtual total %v != per-trial sum %v", seq.VirtualTimeTotal, virtual)
	}
	if findings != seq.FoundFindings {
		t.Errorf("finding count %d != per-trial fold %d", seq.FoundFindings, findings)
	}

	// The plan must actually bite: a corrupting window delays the unlock,
	// so the faulted fleet cannot match a fault-free fleet frame for frame.
	clean := mustRun(t, fleet.Config{
		Trials: 8, BaseSeed: 21, Workers: 2, MaxPerTrial: 30 * time.Minute,
	}, unlockFactory(bcm.CheckByteOnly))
	if clean.FramesSent == seq.FramesSent {
		t.Errorf("fault plan had no observable effect: both fleets sent %d frames", clean.FramesSent)
	}
}
