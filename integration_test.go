package repro

// End-to-end integration test following the paper's narrative in order:
// develop the fuzzer against the simulator, verify its output integrity,
// fuzz the bench-mounted instrument cluster (and damage it), cautiously
// fuzz the target vehicle, then run the bench-top unlock experiment — all
// in one deterministic virtual-time session per stage.

import (
	"testing"
	"time"

	"repro/internal/bcm"
	"repro/internal/bus"
	"repro/internal/capture"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ecu"
	"repro/internal/oracle"
	"repro/internal/signal"
	"repro/internal/target"
	"repro/internal/vehicle"
)

func TestPaperNarrativeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full narrative simulates hours of virtual fuzzing")
	}

	// Stage 1 — §VI/Fig 5: the fuzzer's own output passes the integrity
	// check (flat byte distribution, overall mean ~127).
	gen, err := core.NewGenerator(core.Config{Seed: 20180601})
	if err != nil {
		t.Fatal(err)
	}
	means := newByteMeans(t, gen, 66144)
	if means.overall < 125 || means.overall > 130 {
		t.Fatalf("stage 1: fuzzer output mean %v, want ~127", means.overall)
	}

	// Stage 2 — Fig 9: bench-fuzz the instrument cluster until it crashes;
	// the crash survives a power cycle, the MILs do not.
	sched := clock.New()
	b := bus.New(sched)
	clusterECU := ecu.New("cluster", sched, b.Connect("cluster"))
	c := cluster.New(clusterECU)
	campaign, err := core.NewCampaign(sched, b.Connect("fuzzer"),
		core.Config{Seed: 20180602}, core.WithStopOnFinding())
	if err != nil {
		t.Fatal(err)
	}
	campaign.AddOracle(oracle.Display("camera", 10*time.Millisecond, c.DisplayText, c.DisplayText()))
	if _, ok := campaign.RunUntilFinding(2 * time.Hour); !ok {
		t.Fatal("stage 2: cluster never crashed")
	}
	clusterECU.PowerCycle()
	if len(clusterECU.MILs()) != 0 || !c.Crashed() {
		t.Fatal("stage 2: Fig 9 persistence shape violated")
	}

	// Stage 3 — §VI: cautious, targeted fuzzing of the shared target
	// vehicle. Capture traffic first, fuzz only observed identifiers, stop
	// at the first significant effect.
	vsched := clock.New()
	v := vehicle.New(vsched, vehicle.Config{Seed: 20180603})
	rec := capture.NewRecorder(v.Body, 0)
	vsched.RunUntil(3 * time.Second)
	observed := rec.Trace().IDs()
	if len(observed) < 5 {
		t.Fatalf("stage 3: only %d identifiers captured", len(observed))
	}
	vcampaign, err := core.NewCampaign(vsched, v.AttachOBD(vehicle.OBDBody, "fuzzer"),
		core.Config{Seed: 20180604, TargetIDs: observed}, core.WithStopOnFinding())
	if err != nil {
		t.Fatal(err)
	}
	vcampaign.AddOracle(&oracle.SignalRange{DB: signal.VehicleDB()})
	finding, ok := vcampaign.RunUntilFinding(10 * time.Minute)
	if !ok {
		t.Fatal("stage 3: targeted fuzzing had no observable effect")
	}
	if finding.Verdict.Oracle != "signal-range" {
		t.Fatalf("stage 3: oracle = %q", finding.Verdict.Oracle)
	}
	if chimes := v.Cluster.ECU().Chimes(); chimes == 0 {
		t.Fatal("stage 3: no warning sounds despite signal-range finding")
	}

	// Stage 4 — Table V: the bench-top unlock, loose then strict parser,
	// same seed: the strict parser can never be faster.
	seeds := int64(20180605)
	loose, err := target.Build(unlockSpec, core.Config{Seed: seeds}, target.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fLoose, ok := loose.World.Campaign.RunUntilFinding(12 * time.Hour)
	if !ok {
		t.Fatal("stage 4: loose parser never unlocked")
	}
	strictSpec := unlockSpec
	strictSpec.Check = bcm.CheckByteAndLength
	strict, err := target.Build(strictSpec, core.Config{Seed: seeds}, target.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fStrict, ok := strict.World.Campaign.RunUntilFinding(24 * time.Hour)
	if !ok {
		t.Fatal("stage 4: strict parser never unlocked")
	}
	tLoose, tStrict := fLoose.Elapsed, fStrict.Elapsed
	if tStrict < tLoose {
		t.Fatalf("stage 4: strict (%v) beat loose (%v) on the same stream", tStrict, tLoose)
	}
	t.Logf("narrative complete: cluster crash reproduced; targeted vehicle finding after %v; unlock %v (loose) vs %v (strict)",
		finding.Elapsed.Round(time.Millisecond), tLoose.Round(time.Second), tStrict.Round(time.Second))
}

// byteMeansSummary is a tiny local helper for stage 1.
type byteMeansSummary struct{ overall float64 }

func newByteMeans(t *testing.T, gen *core.Generator, n int) byteMeansSummary {
	t.Helper()
	var sum float64
	var count uint64
	for i := 0; i < n; i++ {
		f := gen.Next()
		for _, by := range f.Data[:f.Len] {
			sum += float64(by)
			count++
		}
	}
	if count == 0 {
		t.Fatal("no payload bytes generated")
	}
	return byteMeansSummary{overall: sum / float64(count)}
}

// TestVehicleSurvivesSustainedBlindFuzz is the paper's availability test:
// two virtual minutes of full-space fuzzing leave the vehicle degraded
// (MILs, chimes) but the simulation itself never deadlocks or panics and
// legitimate traffic keeps flowing.
func TestVehicleSurvivesSustainedBlindFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained fuzz run")
	}
	sched := clock.New()
	v := vehicle.New(sched, vehicle.Config{Seed: 5})
	campaign, err := core.NewCampaign(sched, v.AttachOBD(vehicle.OBDBody, "fuzzer"),
		core.Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	before := v.Body.Stats().FramesDelivered
	campaign.Start()
	sched.RunUntil(2 * time.Minute)
	campaign.Stop()
	if v.Cluster.ECU().Chimes() == 0 {
		t.Fatal("no audible warnings after two minutes of fuzzing")
	}
	delivered := v.Body.Stats().FramesDelivered - before
	// ~250 legit + 1000 fuzz frames per second for 120 s.
	if delivered < 100000 {
		t.Fatalf("only %d frames delivered; bus stalled?", delivered)
	}
	// Legitimate periodic traffic still flows after the attack stops.
	engineFrames := 0
	v.TapOBD(vehicle.OBDPowertrain, func(m bus.Message) {
		if m.Frame.ID == signal.IDEngineData {
			engineFrames++
		}
	})
	sched.RunFor(time.Second)
	if engineFrames < 90 {
		t.Fatalf("EngineData rate degraded to %d/s after fuzzing stopped", engineFrames)
	}
}
