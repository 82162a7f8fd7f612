package target_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
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
// although the engine publishes only periodically while it runs. The
// counters are cumulative over both trials; the gauges describe the
// current one.
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

	var before guided.FuzzSnapshot // counters of the trials already finished
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
			Execs:                before.Execs + eng.Mutations() + eng.Explorations(),
			NoveltyHits:          before.NoveltyHits + eng.NoveltyHits(),
			Mutations:            before.Mutations + eng.Mutations(),
			Explorations:         before.Explorations + eng.Explorations(),
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
		if sent := eng.Mutations() + eng.Explorations(); sent != w.Campaign.FramesSent() {
			t.Fatalf("trial %d: engine execs %d, campaign sent %d", trial, sent, w.Campaign.FramesSent())
		}
		before = want
	}
}

// TestBenchEngineFollowsMode checks that a bench world carries a guided
// engine as its campaign's frame source exactly when the config asks for
// guided mode, and that the campaign's stop hook leaves the engine's
// introspection slot exact.
func TestBenchEngineFollowsMode(t *testing.T) {
	spec := target.Spec{Target: "bench", Check: bcm.CheckByteOnly, Stop: true}
	blind, err := target.Build(spec, core.Config{Seed: 1}, target.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if eng, ok := blind.World.Campaign.FrameSource().(*guided.Engine); ok {
		t.Fatalf("blind world: frame source is engine %p; want none", eng)
	}
	intr := guided.NewIntrospection()
	g, err := target.Build(spec, core.Config{Seed: 1, Mode: core.ModeGuided}, target.Options{Introspection: intr})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.World.Campaign.FrameSource().(*guided.Engine); !ok {
		t.Fatalf("guided world: frame source is %T, want *guided.Engine", g.World.Campaign.FrameSource())
	}
	if _, ok := g.World.Campaign.RunUntilFinding(30 * time.Minute); !ok {
		t.Fatal("guided unlock did not land within the budget")
	}
	// The stop hook leaves the introspection slot exact: every frame the
	// campaign sent came from the engine.
	if execs := intr.Snapshot().Execs; execs != g.World.Campaign.FramesSent() {
		t.Fatalf("engine execs %d != campaign frames %d", execs, g.World.Campaign.FramesSent())
	}
}

// TestIntrospectionCountsEveryTrial runs a guided bench fleet on one
// worker, once recycling its world and once building every trial cold:
// either way /fuzz.json must count every frame the fleet sent, so a
// recycled engine's reset may not drop its finished trials.
func TestIntrospectionCountsEveryTrial(t *testing.T) {
	cfg := core.Config{Mode: core.ModeGuided, TargetIDs: []can.ID{signal.IDBodyCommand}}
	for _, pooled := range []bool{true, false} {
		t.Run(fmt.Sprintf("pooled=%v", pooled), func(t *testing.T) {
			intr := guided.NewIntrospection()
			factory := func(ts fleet.TrialSpec) (*fleet.World, error) {
				c := cfg
				c.Seed = ts.Seed
				b, err := target.Build(target.Spec{Target: "bench", Stop: true}, c,
					target.Options{Introspection: intr})
				if err != nil {
					return nil, err
				}
				if !pooled {
					b.World.Reset = nil
				}
				return b.World, nil
			}
			rep, err := fleet.Run(fleet.Config{
				Trials: 6, Workers: 1, BaseSeed: 3, MaxPerTrial: 30 * time.Minute,
			}, factory)
			if err != nil {
				t.Fatal(err)
			}
			s := intr.Snapshot()
			if s.Execs != rep.FramesSent || s.Mutations+s.Explorations != rep.FramesSent {
				t.Fatalf("snapshot execs %d (mutations %d + explorations %d), fleet sent %d frames",
					s.Execs, s.Mutations, s.Explorations, rep.FramesSent)
			}
			wantEngines := 1
			if !pooled {
				wantEngines = 6
			}
			if s.Engines != wantEngines {
				t.Fatalf("%d engines registered, want %d", s.Engines, wantEngines)
			}
		})
	}
}

// TestBuildTable builds every target × bus × check × recovery × mode ×
// instrumentation combination. A bench world must be reusable: after a
// dirtying trial, reset-and-run gives the same TrialResult JSON (guided
// corpus included) and campaign report as a cold build-and-run at the
// same seed, and an instrumented world also the same Prometheus
// exposition and Chrome trace. Cluster, vehicle and fault-plan worlds
// must have no Reset hook, so every fleet and campaign service worker
// builds them fresh for each trial. Every bench world, fault plan or not,
// hands out its testbed (Built.Bench) and every cluster world its
// cluster (Built.Cluster); no other target does either.
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
				for _, instrumented := range []bool{false, true} {
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
					if instrumented {
						name += "/instrumented"
					}
					t.Run(name, func(t *testing.T) {
						var worlds []builtWorld
						factory := func(ts fleet.TrialSpec) (*fleet.World, error) {
							var o target.Options
							if instrumented {
								o = target.Options{Telemetry: telemetry.New(0), Introspection: guided.NewIntrospection()}
							}
							b, err := target.Build(spec, core.Config{
								Seed: ts.Seed, Mode: mode, TargetIDs: []can.ID{signal.IDBodyCommand},
							}, o)
							if err != nil {
								return nil, err
							}
							if (b.Bench != nil) != (spec.Target == "bench") {
								return nil, fmt.Errorf("Built.Bench set %t for target %s", b.Bench != nil, spec.Target)
							}
							if (b.Cluster != nil) != (spec.Target == "cluster") {
								return nil, fmt.Errorf("Built.Cluster set %t for target %s", b.Cluster != nil, spec.Target)
							}
							worlds = append(worlds, builtWorld{b.World, o.Telemetry})
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
						warmRes := pool.RunTrial(trial, cfg, factory)
						coldRes := fleet.RunTrial(trial, cfg, factory)
						// One build for the probe above, one for the pooled
						// world, one for the cold run: the reset trial built none.
						if len(worlds) != 3 {
							t.Fatalf("factory called %d times, want 3", len(worlds))
						}
						warm := worlds[1].outputs(t, warmRes)
						cold := worlds[2].outputs(t, coldRes)
						for i := range warm {
							if !bytes.Equal(warm[i].data, cold[i].data) {
								t.Fatalf("reset-and-run %s differs from a cold build-and-run\nwarm: %s\ncold: %s",
									warm[i].name, warm[i].data, cold[i].data)
							}
						}
					})
				}
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
	if b.Bench == nil {
		t.Fatal("fault-plan bench world lacks its testbed")
	}
}

// builtWorld is one world a TestBuildTable factory built, with the
// telemetry plane it was built with (nil when uninstrumented).
type builtWorld struct {
	world *fleet.World
	tel   *telemetry.Telemetry
}

// output is one named serialisation of a trial's outcome.
type output struct {
	name string
	data []byte
}

// outputs serialises what a trial left behind in the world that ran it:
// the trial result, the campaign report and, when instrumented, the
// metrics exposition and the trace.
func (b builtWorld) outputs(t *testing.T, res fleet.TrialResult) []output {
	t.Helper()
	if res.Status == fleet.StatusError || res.Status == fleet.StatusPanic {
		t.Fatalf("trial %d failed: %+v", res.Trial, res)
	}
	resJSON, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	outs := []output{{"trial result", resJSON}}
	write := func(name string, fn func(io.Writer) error) {
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		outs = append(outs, output{name, buf.Bytes()})
	}
	write("campaign report", b.world.Campaign.BuildReport().WriteJSON)
	if b.tel != nil {
		write("metrics", b.tel.Registry.WritePrometheus)
		write("trace", b.tel.Tracer.WriteChromeTrace)
	}
	return outs
}
