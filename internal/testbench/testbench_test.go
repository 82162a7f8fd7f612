package testbench_test

import (
	"testing"
	"time"

	"repro/internal/bcm"
	"repro/internal/can"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/target"
	"repro/internal/testbench"
)

func newSched(t *testing.T) *clock.Scheduler {
	t.Helper()
	return clock.New()
}

func TestNormalOperationLockUnlock(t *testing.T) {
	// Fig 12/13: the PC app locks and unlocks via the head unit.
	s := newSched(t)
	b := testbench.New(s, testbench.Config{AckUnlock: true})
	if err := b.HeadUnit.AppUnlock(testbench.AppToken); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(100 * time.Millisecond)
	if !b.BCM.Unlocked() {
		t.Fatal("LED off after app unlock")
	}
	if err := b.HeadUnit.AppLock(testbench.AppToken); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(200 * time.Millisecond)
	if b.BCM.Unlocked() {
		t.Fatal("LED on after app lock")
	}
}

func TestMonitorNodeSeesTraffic(t *testing.T) {
	s := newSched(t)
	b := testbench.New(s, testbench.Config{})
	b.HeadUnit.AppUnlock(testbench.AppToken)
	s.RunUntil(time.Second)
	if b.Monitor.Port().Stats().RxFrames == 0 {
		t.Fatal("monitor node saw no traffic")
	}
}

func TestFuzzerHasNoKnowledgeButUnlocks(t *testing.T) {
	// §VI: "When the fuzzer runs it has no knowledge of the CAN message to
	// activate the locks... the unlock (or lock) functionality was
	// activated after a few minutes of randomly generated CAN data."
	b, err := target.Build(target.Spec{Target: "bench", Check: bcm.CheckByteOnly, Stop: true},
		core.Config{Seed: 20180625}, target.Options{})
	if err != nil {
		t.Fatal(err)
	}
	finding, ok := b.World.Campaign.RunUntilFinding(4 * time.Hour)
	if !ok {
		t.Fatal("fuzzer never unlocked the doors")
	}
	if !b.Bench.BCM.Unlocked() {
		t.Fatal("oracle fired but LED is off")
	}
	// The expectation at 1 ms pacing over the 2048x9x256 space is minutes,
	// not milliseconds and not days.
	if elapsed := finding.Elapsed; elapsed < time.Second || elapsed > 2*time.Hour {
		t.Fatalf("time to unlock = %v, implausible", elapsed)
	}
}

func TestLengthCheckSlowsFuzzer(t *testing.T) {
	// The Table V shape on a pair of single runs with a shared seed: the
	// stricter parser can never be faster than the loose one for the same
	// fuzz stream, because it accepts a strict subset of frames.
	seed := int64(7)
	loose, err := target.Build(target.Spec{Target: "bench", Check: bcm.CheckByteOnly, Stop: true},
		core.Config{Seed: seed}, target.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fLoose, ok := loose.World.Campaign.RunUntilFinding(12 * time.Hour)
	if !ok {
		t.Fatal("loose parser never unlocked")
	}
	strict, err := target.Build(target.Spec{Target: "bench", Check: bcm.CheckByteAndLength, Stop: true},
		core.Config{Seed: seed}, target.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fStrict, ok := strict.World.Campaign.RunUntilFinding(12 * time.Hour)
	if !ok {
		t.Fatal("strict parser never unlocked within 12h")
	}
	if tStrict, tLoose := fStrict.Elapsed, fLoose.Elapsed; tStrict < tLoose {
		t.Fatalf("strict (%v) unlocked before loose (%v) on identical stream", tStrict, tLoose)
	}
}

func TestLEDOracleDetectsUnlock(t *testing.T) {
	sched := newSched(t)
	bench := testbench.New(sched, testbench.Config{}) // no ack augmentation: physical oracle instead
	port := bench.AttachFuzzer("fuzzer")
	campaign, err := core.NewCampaign(sched, port, core.Config{Seed: 99}, core.WithStopOnFinding())
	if err != nil {
		t.Fatal(err)
	}
	campaign.AddOracle(bench.LEDOracle(10 * time.Millisecond))
	finding, ok := campaign.RunUntilFinding(4 * time.Hour)
	if !ok {
		t.Fatal("LED oracle never fired")
	}
	if finding.Verdict.Oracle != "lock-led" {
		t.Fatalf("oracle = %q", finding.Verdict.Oracle)
	}
	if !bench.BCM.Unlocked() {
		t.Fatal("LED oracle fired with doors locked")
	}
}

func TestTargetedFuzzingFasterThanBlind(t *testing.T) {
	// §VII: usefulness "in fuzz testing in a specific message space, close
	// to known messages". Targeting the observed command ID shrinks the
	// space by 2048x; with matched seeds the hit should come much sooner.
	spec := target.Spec{Target: "bench", Check: bcm.CheckByteOnly, Stop: true}
	blind, err := target.Build(spec, core.Config{Seed: 11}, target.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fBlind, ok := blind.World.Campaign.RunUntilFinding(12 * time.Hour)
	if !ok {
		t.Fatal("blind run never unlocked")
	}
	targeted, err := target.Build(spec, core.Config{
		Seed:      11,
		TargetIDs: []can.ID{0x215},
	}, target.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fTargeted, ok := targeted.World.Campaign.RunUntilFinding(12 * time.Hour)
	if !ok {
		t.Fatal("targeted run never unlocked")
	}
	if tTargeted, tBlind := fTargeted.Elapsed, fBlind.Elapsed; tTargeted*10 > tBlind {
		t.Fatalf("targeted (%v) not ≫ faster than blind (%v)", tTargeted, tBlind)
	}
}
