package target_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/bcm"
	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/core"
	"repro/internal/faults"
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

// TestBuildTable builds every target × bus × check × recovery × mode
// combination. A bench world must be reusable: after a dirtying trial,
// reset-and-run gives the same TrialResult JSON (guided corpus included)
// as a cold build-and-run at the same seed. Cluster, vehicle and
// fault-plan worlds must have no Reset hook, so every fleet and campaign
// service worker builds them fresh for each trial.
func TestBuildTable(t *testing.T) {
	var specs []target.Spec
	for _, check := range []bcm.CheckMode{bcm.CheckByteOnly, bcm.CheckByteAndLength, bcm.CheckTwoBytes} {
		specs = append(specs, target.Spec{Target: "bench", Check: check})
	}
	specs = append(specs, target.Spec{Target: "cluster"},
		target.Spec{Target: "vehicle", Bus: "body"}, target.Spec{Target: "vehicle", Bus: "powertrain"})

	cfg := fleet.Config{MaxPerTrial: 2 * time.Second}
	dirty := fleet.TrialSpec{Index: 0, Seed: 5}
	trial := fleet.TrialSpec{Index: 1, Seed: 6}
	for _, base := range specs {
		for _, recovery := range []bool{false, true} {
			for _, mode := range []core.Mode{core.ModeRandom, core.ModeGuided} {
				spec := base
				spec.Recovery = recovery
				spec.Stop = true
				name := spec.Target
				switch spec.Target {
				case "bench":
					name += "/check=" + target.CheckModeName(spec.Check)
				case "vehicle":
					name += "/bus=" + spec.Bus
				}
				name += fmt.Sprintf("/recovery=%t/%s", recovery, mode)
				t.Run(name, func(t *testing.T) {
					builds := 0
					factory := func(ts fleet.TrialSpec) (*fleet.World, error) {
						builds++
						b, err := target.Build(spec, core.Config{
							Seed: ts.Seed, Mode: mode, TargetIDs: []can.ID{signal.IDBodyCommand},
						}, target.Options{})
						if err != nil {
							return nil, err
						}
						return b.World, nil
					}
					w, err := factory(dirty)
					if err != nil {
						t.Fatal(err)
					}
					if spec.Target != "bench" {
						if w.Reset != nil {
							t.Fatal("non-bench world advertises Reset; the worker's cold fallback must serve it")
						}
						return
					}
					if w.Reset == nil {
						t.Fatal("bench world has no Reset hook")
					}
					pool := &fleet.WorldPool{}
					if res := pool.RunTrial(dirty, cfg, factory); res.Status == fleet.StatusError || res.Status == fleet.StatusPanic {
						t.Fatalf("dirtying trial: %+v", res)
					}
					warm := resultJSON(t, pool.RunTrial(trial, cfg, factory))
					cold := resultJSON(t, fleet.RunTrial(trial, cfg, factory))
					if !bytes.Equal(warm, cold) {
						t.Fatalf("reset-and-run differs from a cold build-and-run\nwarm: %s\ncold: %s", warm, cold)
					}
					// One build for the probe above, one for the pooled
					// world, one for the cold run: the reset trial built none.
					if builds != 3 {
						t.Fatalf("factory called %d times, want 3", builds)
					}
				})
			}
		}
	}

	plan, err := faults.ParsePlan("seed=1;corrupt(p=1,at=50ms,for=50ms)")
	if err != nil {
		t.Fatal(err)
	}
	b, err := target.Build(target.Spec{Target: "bench"}, core.Config{Seed: 1}, target.Options{Plan: &plan})
	if err != nil {
		t.Fatal(err)
	}
	if b.World.Reset != nil {
		t.Fatal("fault-plan bench world advertises Reset; its injector cannot be re-armed")
	}
}

func resultJSON(t *testing.T, res fleet.TrialResult) []byte {
	t.Helper()
	if res.Status == fleet.StatusError || res.Status == fleet.StatusPanic {
		t.Fatalf("trial %d failed: %+v", res.Trial, res)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
