package guided_test

import (
	"testing"
	"time"

	"repro/internal/bcm"
	"repro/internal/can"
	"repro/internal/core"
	"repro/internal/guided"
	"repro/internal/signal"
	"repro/internal/target"
)

func TestIntrospectionNil(t *testing.T) {
	var intr *guided.Introspection
	if intr.Register() != nil {
		t.Error("nil Introspection.Register should return a nil slot")
	}
	if s := intr.Snapshot(); s.Engines != 0 || s.Execs != 0 {
		t.Errorf("nil Introspection.Snapshot not zero: %+v", s)
	}
}

func TestIntrospectionTracksGuidedRun(t *testing.T) {
	intr := guided.NewIntrospection()
	w, eng := guidedWorld(t, bcm.CheckByteOnly,
		core.Config{Seed: 9, TargetIDs: []can.ID{signal.IDBodyCommand}}, target.Options{Introspection: intr})
	if _, ok := w.Campaign.RunUntilFinding(30 * time.Minute); !ok {
		t.Fatal("guided unlock did not land within the budget")
	}

	s := intr.Snapshot()
	if s.Engines != 1 {
		t.Fatalf("engines = %d, want 1", s.Engines)
	}
	if s.NoveltyHits != eng.NoveltyHits() {
		t.Errorf("noveltyHits = %d, want %d", s.NoveltyHits, eng.NoveltyHits())
	}
	if s.Mutations != eng.Mutations() || s.Explorations != eng.Explorations() {
		t.Errorf("mutations/explorations = %d/%d, want %d/%d",
			s.Mutations, s.Explorations, eng.Mutations(), eng.Explorations())
	}
	if s.Mutations+s.Explorations != s.Execs {
		t.Errorf("mutations %d + explorations %d != execs %d", s.Mutations, s.Explorations, s.Execs)
	}
	if s.MutateRatio <= 0 || s.MutateRatio >= 1 {
		t.Errorf("mutateRatio = %v, want strictly between 0 and 1 (explore 1-in-8)", s.MutateRatio)
	}
	if s.NoveltyBitsSet <= 0 || s.NoveltySaturation <= 0 || s.NoveltySaturation > 1 {
		t.Errorf("novelty saturation implausible: bits=%d saturation=%v", s.NoveltyBitsSet, s.NoveltySaturation)
	}
	if s.CorpusSize <= 0 {
		t.Errorf("corpusSize = %d, want > 0 after a feedback run", s.CorpusSize)
	}
	if s.ExecsSinceNoveltyMin != eng.ExecsSinceNovelty() {
		t.Errorf("execsSinceNoveltyMin = %d, want %d", s.ExecsSinceNoveltyMin, eng.ExecsSinceNovelty())
	}
	// The engine runs thousands of ticks past energyPublishEvery, so the
	// amortised energy snapshot must have been published.
	if s.Energy.Sum == 0 || s.Energy.Max == 0 {
		t.Errorf("energy quantiles empty: %+v", s.Energy)
	}
	if s.Energy.P25 > s.Energy.P50 || s.Energy.P50 > s.Energy.P90 || s.Energy.P90 > s.Energy.Max {
		t.Errorf("energy quantiles not monotonic: %+v", s.Energy)
	}
}

// TestIntrospectionEnergyExactAfterEarlyStop stops a guided run well
// before energyPublishEvery ticks: the stop hook must still leave the
// energy snapshot equal to the corpus's total energy.
func TestIntrospectionEnergyExactAfterEarlyStop(t *testing.T) {
	intr := guided.NewIntrospection()
	w, eng := guidedWorld(t, bcm.CheckByteOnly, core.Config{
		Seed: 9, TargetIDs: []can.ID{signal.IDBodyCommand}, Interval: time.Millisecond,
	}, target.Options{Introspection: intr})
	w.Campaign.RunUntilFinding(300 * time.Millisecond)

	s := intr.Snapshot()
	if s.Execs == 0 || s.Execs >= 512 {
		t.Fatalf("execs = %d, want a run stopped within 512 ticks", s.Execs)
	}
	if s.CorpusSize == 0 {
		t.Fatal("corpus empty: the run admitted nothing to weigh")
	}
	if want := eng.CorpusEnergy(); s.Energy.Sum != want {
		t.Errorf("energy sum = %d, want the corpus total %d", s.Energy.Sum, want)
	}
}

func TestIntrospectionAggregatesEngines(t *testing.T) {
	intr := guided.NewIntrospection()
	var want uint64
	for seed := int64(1); seed <= 3; seed++ {
		w, eng := guidedWorld(t, bcm.CheckByteOnly,
			core.Config{Seed: seed, TargetIDs: []can.ID{signal.IDBodyCommand}}, target.Options{Introspection: intr})
		w.Campaign.RunUntilFinding(30 * time.Minute)
		want += eng.Mutations() + eng.Explorations()
	}
	s := intr.Snapshot()
	if s.Engines != 3 {
		t.Fatalf("engines = %d, want 3", s.Engines)
	}
	if s.Execs != want {
		t.Errorf("aggregated execs = %d, want the per-engine sum %d", s.Execs, want)
	}
}
