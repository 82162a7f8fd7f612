package target_test

import (
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/guided"
	"repro/internal/signal"
	"repro/internal/target"
	"repro/internal/telemetry"
)

// passThrough hides the guided engine behind another FrameSource, as a
// tracing or sampling adapter would.
type passThrough struct{ inner core.FrameSource }

func (p passThrough) Next() (can.Frame, bool) { return p.inner.Next() }
func (p passThrough) Observe(m bus.Message)   { p.inner.Observe(m) }

// TestIntrospectionExactThroughWrapper runs a guided bench world, built
// with live telemetry and introspection, to the unlock with its frame
// source wrapped, then once more after a world reset: each time the
// introspection snapshot must equal the engine's own counters exactly,
// although the engine publishes only periodically while it runs.
func TestIntrospectionExactThroughWrapper(t *testing.T) {
	intr := guided.NewIntrospection()
	b, err := target.Build(target.Spec{Target: "bench", Stop: true},
		core.Config{Seed: 5, Mode: core.ModeGuided, TargetIDs: []can.ID{signal.IDBodyCommand}},
		target.Options{Telemetry: telemetry.New(0), Introspection: intr})
	if err != nil {
		t.Fatal(err)
	}
	w := b.World
	eng, ok := w.Campaign.FrameSource().(*guided.Engine)
	if !ok {
		t.Fatalf("frame source is %T, want *guided.Engine", w.Campaign.FrameSource())
	}
	w.Campaign.SetFrameSource(passThrough{eng})

	for trial, seed := range []int64{5, 6} {
		if trial > 0 {
			if err := w.Reset(fleet.TrialSpec{Index: trial, Seed: seed}); err != nil {
				t.Fatal(err)
			}
		}
		if _, ok := w.Campaign.RunUntilFinding(30 * time.Minute); !ok {
			t.Fatalf("trial %d: guided unlock did not land within the budget", trial)
		}
		s := intr.Snapshot()
		want := guided.FuzzSnapshot{
			Execs:                eng.Mutations() + eng.Explorations(),
			NoveltyHits:          eng.NoveltyHits(),
			Mutations:            eng.Mutations(),
			Explorations:         eng.Explorations(),
			ExecsSinceNoveltyMin: eng.ExecsSinceNovelty(),
			NoveltyBitsSet:       int64(eng.NoveltyBits()),
			CorpusSize:           int64(eng.CorpusSize()),
		}
		got := guided.FuzzSnapshot{
			Execs: s.Execs, NoveltyHits: s.NoveltyHits, Mutations: s.Mutations,
			Explorations: s.Explorations, ExecsSinceNoveltyMin: s.ExecsSinceNoveltyMin,
			NoveltyBitsSet: s.NoveltyBitsSet, CorpusSize: s.CorpusSize,
		}
		if got != want {
			t.Fatalf("trial %d: snapshot %+v, engine %+v", trial, got, want)
		}
		if want.Execs != w.Campaign.FramesSent() {
			t.Fatalf("trial %d: engine execs %d, campaign sent %d", trial, want.Execs, w.Campaign.FramesSent())
		}
	}
}
