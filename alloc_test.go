package repro

// Allocation-budget tests for the campaign-level hot path: the per-tick
// work of a guided fuzzing campaign — engine harvest + generate, frame
// validation, bus transmit, scheduling, ECU reactions — measured with
// testing.AllocsPerRun so an allocation regression on the hot path is a
// failing test, not a benchmark footnote. The bus- and clock-level
// zero-alloc guarantees live next to their packages (internal/bus,
// internal/clock); this pins the whole assembled world.

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/can"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/guided"
	"repro/internal/target"
	"repro/internal/testbench"
)

// guidedStepAllocBudget bounds the average heap allocations per 1 ms
// campaign tick in steady state. The budget is not zero because the world
// legitimately allocates off the TX fast path: novelty hits append to the
// corpus, ECU responses construct reply state, and the engine's RNG feeds
// mutation — but it must stay small and flat. The pre-overhaul code spent
// ~6 allocations per tick on clock nodes, queue growth and completion
// closures alone.
const guidedStepAllocBudget = 2.0

func TestGuidedCampaignStepAllocBudget(t *testing.T) {
	sched := clock.New()
	bench := testbench.New(sched, testbench.Config{AckUnlock: true})
	port := bench.AttachFuzzer("fuzzer")
	fuzzCfg := core.Config{Seed: 11, Mode: core.ModeGuided, Interval: time.Millisecond}
	engine, err := guided.NewEngine(fuzzCfg,
		guided.WithProbes(bench.GuidedProbes(port)...))
	if err != nil {
		t.Fatal(err)
	}
	campaign, err := core.NewCampaign(sched, port, fuzzCfg, core.WithFrameSource(engine))
	if err != nil {
		t.Fatal(err)
	}
	campaign.Start()
	defer campaign.Stop()

	// Warm-up: let the corpus seed itself, queues and event pools reach
	// steady state, and the novelty map absorb the world's common responses.
	sched.RunFor(2 * time.Second)

	allocs := testing.AllocsPerRun(1000, func() {
		sched.RunFor(time.Millisecond)
	})
	if allocs > guidedStepAllocBudget {
		t.Fatalf("guided campaign step allocates %v per tick, budget %v",
			allocs, guidedStepAllocBudget)
	}
}

// TestRandomCampaignStepZeroAlloc pins the blind-random campaign tick —
// generator, validation, bus transmit, scheduling, ECU reactions — at zero
// steady-state allocations: with no corpus or novelty bookkeeping, nothing
// on this path may touch the heap.
func TestRandomCampaignStepZeroAlloc(t *testing.T) {
	sched := clock.New()
	bench := testbench.New(sched, testbench.Config{AckUnlock: true})
	port := bench.AttachFuzzer("fuzzer")
	campaign, err := core.NewCampaign(sched, port,
		core.Config{Seed: 7, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	campaign.Start()
	defer campaign.Stop()

	sched.RunFor(2 * time.Second)

	allocs := testing.AllocsPerRun(1000, func() {
		sched.RunFor(time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("random campaign step allocates %v per tick, want 0", allocs)
	}
}

// TestWorldResetZeroAlloc pins a full world reset — scheduler, bus and
// ports, every bench ECU, telemetry, generator or guided-engine RNG and
// campaign state — at zero steady-state heap allocations, for a blind and
// a guided bench world, each reset under a fresh seed on every call. This
// is what makes fleet-side world reuse worth having: recycling a trial
// world must cost CPU only, never garbage.
func TestWorldResetZeroAlloc(t *testing.T) {
	cfg := core.Config{Seed: 5, TargetIDs: []can.ID{0x215}, Interval: time.Millisecond}
	blind, err := target.Build(unlockSpec, cfg, target.Options{})
	if err != nil {
		t.Fatal(err)
	}
	guided, err := target.Build(unlockSpec,
		core.Config{Seed: 101, Interval: time.Millisecond, Mode: core.ModeGuided}, target.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string]*fleet.World{"blind": blind.World, "guided": guided.World} {
		// Dirty the world once so the reset has real state to clear.
		if _, ok := w.Campaign.RunUntilFinding(30 * time.Minute); !ok {
			t.Fatalf("%s campaign found no unlock within 30 virtual minutes", name)
		}
		ts := fleet.TrialSpec{Seed: 1000}
		allocs := testing.AllocsPerRun(100, func() {
			ts.Seed++
			if err := w.Reset(ts); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s world reset allocates %v per call, want 0", name, allocs)
		}
	}
}

// fleetTrialAllocBudget bounds the average heap allocations per fleet
// trial once the world pool is warm. The factory-per-trial cold path
// spent ~6.6k allocations per trial building the world alone; the reuse
// path keeps only the per-trial bookkeeping (result rows, finding
// payloads, report assembly), so an order of magnitude less. A breach
// means the reset path started rebuilding something it should recycle.
const fleetTrialAllocBudget = 660.0

func TestFleetTrialAllocBudget(t *testing.T) {
	const trials = 8
	cfg := fleet.Config{
		Trials:      trials,
		Workers:     1,
		BaseSeed:    5,
		MaxPerTrial: 30 * time.Minute,
		Pool:        &fleet.WorldPool{},
	}
	run := func() {
		if _, err := fleet.Run(cfg, unlockFleetFactory); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pool: later runs recycle this world for every trial
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const reps = 5
	for i := 0; i < reps; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perTrial := float64(after.Mallocs-before.Mallocs) / (reps * trials)
	if perTrial > fleetTrialAllocBudget {
		t.Fatalf("fleet trial allocates %.0f with a warm pool, budget %v",
			perTrial, fleetTrialAllocBudget)
	}
}
