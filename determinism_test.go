package repro

// Determinism regression goldens guarding the hot-path optimization work:
// the campaign and fleet report JSON for pinned seeds is committed, and
// these tests assert byte-identical output. Any perf change to the clock,
// bus, codec, guided engine or campaign loop must leave these bytes
// untouched — the optimizations may only make the same behaviour faster.
//
// Regenerate (and review the diff!) with:
//
//	go test -run TestDeterminism -update .

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/bcm"
	"repro/internal/can"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/target"
)

// unlockSpec is the Table V bench world with the loose (byte-only) BCM
// parser, its campaign stopping at the unlock.
var unlockSpec = target.Spec{Target: "bench", Check: bcm.CheckByteOnly, Stop: true}

// TestDeterminismCampaignReportGolden runs a guided bench-unlock campaign
// at a pinned seed and asserts its report JSON is byte-identical to the
// committed golden. The guided engine exercises every optimized layer at
// once: clock event pooling, bus TX queues, frame encoding, novelty
// hashing and the campaign send loop.
func TestDeterminismCampaignReportGolden(t *testing.T) {
	b, err := target.Build(unlockSpec,
		core.Config{Seed: 101, Interval: time.Millisecond, Mode: core.ModeGuided}, target.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.World.Campaign.RunUntilFinding(30 * time.Minute); !ok {
		t.Fatal("guided campaign found no unlock within 30 virtual minutes")
	}
	rep := b.World.Campaign.BuildReport()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "campaign_report_golden.json", buf.Bytes())
}

// unlockFleetFactory is the reusable-world variant of the CI fleet smoke
// factory: the returned world carries a Reset hook, so fleet workers
// recycle it across trials instead of rebuilding.
func unlockFleetFactory(spec fleet.TrialSpec) (*fleet.World, error) {
	b, err := target.Build(unlockSpec, core.Config{
		Seed:      spec.Seed,
		TargetIDs: []can.ID{0x215},
		Interval:  time.Millisecond,
	}, target.Options{})
	if err != nil {
		return nil, err
	}
	return b.World, nil
}

// coldFactory wraps a factory so its worlds have no Reset hook: every
// trial builds a fresh world, the cold oracle the reuse path is compared
// against.
func coldFactory(factory fleet.TargetFactory) fleet.TargetFactory {
	return func(spec fleet.TrialSpec) (*fleet.World, error) {
		w, err := factory(spec)
		if w != nil {
			w.Reset = nil
		}
		return w, err
	}
}

// fleetReportJSON runs a fleet configuration and returns the aggregated
// report as JSON bytes.
func fleetReportJSON(t *testing.T, cfg fleet.Config, factory fleet.TargetFactory) []byte {
	t.Helper()
	rep, err := fleet.Run(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeterminismReuseEquivalence pins the world-reuse fast path to the
// factory-per-trial cold path: the same trial schedule must produce
// byte-identical fleet report JSON with reuse disabled, with per-worker
// reuse, and with a cross-run world pool — at one worker and at full
// width. This is the contract that lets fleet.Run recycle worlds at all:
// a reset world is indistinguishable from a freshly built one.
func TestDeterminismReuseEquivalence(t *testing.T) {
	for _, workers := range []int{1, runtime.NumCPU()} {
		cfg := fleet.Config{
			Trials:      8,
			Workers:     workers,
			BaseSeed:    5,
			MaxPerTrial: 30 * time.Minute,
		}

		coldJSON := fleetReportJSON(t, cfg, coldFactory(unlockFleetFactory))

		reuseJSON := fleetReportJSON(t, cfg, unlockFleetFactory)
		if !bytes.Equal(coldJSON, reuseJSON) {
			t.Errorf("workers=%d: reuse-on report differs from reuse-off\noff: %s\non:  %s",
				workers, coldJSON, reuseJSON)
		}

		// Two runs sharing a pool: the second run's workers start from
		// worlds the first run parked, so every trial exercises the
		// reset path against state left by a *different* schedule.
		pooled := cfg
		pooled.Pool = &fleet.WorldPool{}
		fleetReportJSON(t, pooled, unlockFleetFactory)
		if pooled.Pool.Len() == 0 {
			t.Fatalf("workers=%d: no worlds parked in pool after run", workers)
		}
		pooledJSON := fleetReportJSON(t, pooled, unlockFleetFactory)
		if !bytes.Equal(coldJSON, pooledJSON) {
			t.Errorf("workers=%d: pooled rerun report differs from reuse-off\noff:    %s\npooled: %s",
				workers, coldJSON, pooledJSON)
		}

		// The schedule matches the committed CI golden; reuse must not
		// perturb those bytes either.
		if workers == runtime.NumCPU() {
			checkGolden(t, "fleet_report_golden.json", reuseJSON)
		}
	}
}

// TestDeterminismResetAfterFinding is the leak check for world reuse: a
// trial that *produces a finding* mutates more state than any other
// (oracle fired flags, stop-on-finding campaign bookkeeping, telemetry
// series, probe maps). Resetting that world and running a second seed
// must yield a report byte-identical to a fresh world's run of the same
// seed — any counter or monitor surviving the reset shows up here.
func TestDeterminismResetAfterFinding(t *testing.T) {
	runJSON := func(w *fleet.World) []byte {
		t.Helper()
		if _, ok := w.Campaign.RunUntilFinding(30 * time.Minute); !ok {
			t.Fatal("campaign found no unlock within 30 virtual minutes")
		}
		rep := w.Campaign.BuildReport()
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	mk := func(seed int64) *fleet.World {
		t.Helper()
		w, err := unlockFleetFactory(fleet.TrialSpec{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}

	reused := mk(5)
	runJSON(reused) // finding-producing trial: dirties oracles, report state
	if err := reused.Reset(fleet.TrialSpec{Seed: 6}); err != nil {
		t.Fatal(err)
	}
	got := runJSON(reused)

	want := runJSON(mk(6))
	if !bytes.Equal(got, want) {
		t.Errorf("report after reset differs from fresh world\nfresh: %s\nreset: %s", want, got)
	}
}

// TestDeterminismFleetReportGolden runs the 8-trial targeted-unlock fleet
// smoke (the CI configuration: ids 215, seed 5) at full worker width and
// asserts the aggregated report JSON is byte-identical to the committed
// golden. The fleet report is already asserted worker-count independent in
// internal/fleet; this pins the actual bytes across optimization passes.
func TestDeterminismFleetReportGolden(t *testing.T) {
	rep, err := fleet.Run(fleet.Config{
		Trials:      8,
		Workers:     runtime.NumCPU(),
		BaseSeed:    5,
		MaxPerTrial: 30 * time.Minute,
	}, coldFactory(unlockFleetFactory))
	if err != nil {
		t.Fatal(err)
	}
	if rep.FoundFindings != 8 {
		t.Fatalf("foundFindings = %d, want 8", rep.FoundFindings)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fleet_report_golden.json", buf.Bytes())
}
