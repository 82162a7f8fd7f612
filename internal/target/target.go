// Package target is the shared world builder: one place that knows how to
// construct each simulated system under test (the bench-top unlock testbed,
// the instrument cluster, the full vehicle) as a fully isolated fleet.World
// with the target's oracles armed and its guided-fuzzing probes exposed.
// It is the only owner of how a world is composed and, for the reusable
// bench world, of the recipe that resets it in place between trials
// (World.Reset); Built hands out the system under test (Built.Bench,
// Built.Cluster) for callers that inspect it after a run.
//
// Before this package the construction recipe lived inside cmd/canfuzz,
// which meant every other consumer of a world — the distributed worker, the
// minimizer, replay tooling — had to route through the CLI. Now the CLI
// (fuzzing, -worker and the minimizer), the findings regression replayer
// (internal/findings, behind canregress), the paper's Table V rows and
// ablations (internal/experiments) and the benchmark harness all build
// worlds through the same code path, which is what keeps a trial's result
// byte-identical no matter which tool executed it. canreplay does not: it
// replays a log onto a plain testbench.
package target

import (
	"fmt"
	"time"

	"repro/internal/bcm"
	"repro/internal/campaignd"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ecu"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/guided"
	"repro/internal/oracle"
	"repro/internal/telemetry"
	"repro/internal/testbench"
	"repro/internal/vehicle"

	busPkg "repro/internal/bus"
	sigPkg "repro/internal/signal"
)

// Spec names everything needed to construct one target world.
type Spec struct {
	// Target selects the simulated system: "bench", "cluster" or "vehicle".
	Target string
	// Bus selects the vehicle bus ("body" or "powertrain"; vehicle only).
	Bus string
	// Check is the bench BCM parser strictness (Table V variable).
	Check bcm.CheckMode
	// Stop halts the campaign at its first finding.
	Stop bool
	// Recovery arms ISO 11898-1 bus-off auto-recovery plus the campaign
	// resilience policy.
	Recovery bool
}

// Options carries the optional instrumentation a world can be built with.
// The zero value (every hook nil) is the fleet-trial configuration: fully
// uninstrumented, hot path unchanged.
type Options struct {
	// Telemetry, when non-nil, instruments the world's bus/ECUs/campaign.
	// The world owns it: its tracer takes writes from the world's
	// simulation goroutine without locking while the campaign runs, so one
	// Telemetry must not instrument two worlds that run at the same time.
	Telemetry *telemetry.Telemetry
	// Plan, when non-nil, attaches a fault-injection plan; the injector is
	// built on the world's own scheduler and returned in Built.Injector.
	Plan *faults.Plan
	// Introspection, when non-nil, registers the world's guided engine (if
	// any) with the fuzzer-introspection plane behind /fuzz.json.
	Introspection *guided.Introspection
}

// Built is one constructed target world plus the handles the caller may
// need beyond the fleet contract: the armed fault injector (nil without a
// plan), the target's reaction probes — the same feature sources the
// guided engine's novelty map reads, exposed so replay tooling can capture
// a world's reaction-feature vector after a run — and the system under
// test itself: the Table V testbed for the bench target, the instrument
// cluster for the cluster target (each nil for the other targets). The
// campaign and, in guided mode, its engine are reached through World:
// World.Campaign.FrameSource() is the *guided.Engine.
type Built struct {
	World    *fleet.World
	Injector *faults.Injector
	Probes   []guided.Probe
	Bench    *testbench.Bench
	Cluster  *cluster.Cluster
}

// ParseCheckMode maps the textual -bcm-check flag (and the campaign spec's
// BCMCheck field) onto the bench parser mode.
func ParseCheckMode(s string) (bcm.CheckMode, error) {
	switch s {
	case "", "byte":
		return bcm.CheckByteOnly, nil
	case "length":
		return bcm.CheckByteAndLength, nil
	case "twobytes":
		return bcm.CheckTwoBytes, nil
	default:
		return 0, fmt.Errorf("unknown bcm-check %q", s)
	}
}

// CheckModeName is the inverse of ParseCheckMode — the wire name findings
// records and campaign specs store.
func CheckModeName(m bcm.CheckMode) string {
	switch m {
	case bcm.CheckByteAndLength:
		return "length"
	case bcm.CheckTwoBytes:
		return "twobytes"
	default:
		return "byte"
	}
}

// Build constructs one fully isolated target world: a fresh scheduler, the
// selected target system on it, and an armed campaign with the target's
// oracles. Every call returns a fully independent world (no shared
// scheduler, bus, ECU or RNG state), so worlds may run concurrently.
func Build(spec Spec, cfg core.Config, o Options) (*Built, error) {
	sched := clock.New()
	tel := o.Telemetry
	var opts []core.Option
	if spec.Stop {
		opts = append(opts, core.WithStopOnFinding())
	}
	if tel != nil {
		opts = append(opts, core.WithTelemetry(tel))
	}
	var inj *faults.Injector
	if o.Plan != nil {
		inj = faults.New(sched, *o.Plan)
		inj.Instrument(tel)
		opts = append(opts, core.WithFaultCounts(inj.Counts))
	}
	if spec.Recovery {
		opts = append(opts, core.WithResilience(core.DefaultResilience()))
	}

	var campaign *core.Campaign
	var probes []guided.Probe
	var bench *testbench.Bench
	var clu *cluster.Cluster
	var err error
	switch spec.Target {
	case "bench":
		bench = testbench.New(sched, testbench.Config{Check: spec.Check, AckUnlock: true})
		bench.Instrument(tel)
		fuzzPort := bench.AttachFuzzer("fuzzer")
		armChaos(inj, spec.Recovery, bench.Bus, bench.ECUs(), fuzzPort)
		campaign, err = core.NewCampaign(sched, fuzzPort, cfg, opts...)
		if err != nil {
			return nil, err
		}
		campaign.AddOracle(bench.UnlockOracle())
		probes = bench.GuidedProbes(fuzzPort)

	case "cluster":
		b := busPkg.New(sched, busPkg.WithName("bench"))
		b.Instrument(tel)
		clusterECU := ecu.New("cluster", sched, b.Connect("cluster"))
		clusterECU.Instrument(tel)
		clu = cluster.New(clusterECU)
		fuzzPort := b.Connect("fuzzer")
		armChaos(inj, spec.Recovery, b, map[string]*ecu.ECU{"cluster": clusterECU}, fuzzPort)
		campaign, err = core.NewCampaign(sched, fuzzPort, cfg, opts...)
		if err != nil {
			return nil, err
		}
		campaign.AddOracle(clu.CrashOracle())
		probes = []guided.Probe{
			{Name: "cluster_crash_displays", Fn: clu.CrashDisplays},
			{Name: "fuzzer_tec", Fn: func() uint64 { tec, _ := fuzzPort.ErrorCounters(); return uint64(tec) }},
			{Name: "fuzzer_rec", Fn: func() uint64 { _, rec := fuzzPort.ErrorCounters(); return uint64(rec) }},
		}

	case "vehicle":
		which := vehicle.OBDBody
		if spec.Bus == "powertrain" {
			which = vehicle.OBDPowertrain
		}
		v := vehicle.New(sched, vehicle.Config{Seed: cfg.Seed, BCMAckUnlock: true})
		v.Instrument(tel)
		sched.RunUntil(time.Second) // let the car reach steady idle
		fuzzPort := v.AttachOBD(which, "fuzzer")
		fuzzedBus := v.Body
		if which == vehicle.OBDPowertrain {
			fuzzedBus = v.Powertrain
		}
		armChaos(inj, spec.Recovery, fuzzedBus, v.ECUs(), fuzzPort)
		if spec.Recovery {
			// Both car buses survive bus-off, not just the fuzzed one.
			v.Powertrain.SetAutoRecovery(true)
			v.Body.SetAutoRecovery(true)
		}
		campaign, err = core.NewCampaign(sched, fuzzPort, cfg, opts...)
		if err != nil {
			return nil, err
		}
		campaign.AddOracle(&oracle.SignalRange{DB: sigPkg.VehicleDB()})
		campaign.AddOracle(oracle.Physical("bcm-unlock", 10*time.Millisecond,
			v.BCM.Unlocked, false, "doors unlocked"))
		probes = []guided.Probe{
			{Name: "bcm_unlocked", Fn: func() uint64 {
				if v.BCM.Unlocked() {
					return 1
				}
				return 0
			}},
			{Name: "fuzzer_tec", Fn: func() uint64 { tec, _ := fuzzPort.ErrorCounters(); return uint64(tec) }},
			{Name: "fuzzer_rec", Fn: func() uint64 { _, rec := fuzzPort.ErrorCounters(); return uint64(rec) }},
		}

	default:
		return nil, fmt.Errorf("unknown target %q", spec.Target)
	}

	world := &fleet.World{Sched: sched, Campaign: campaign}
	var eng *guided.Engine
	if cfg.Mode == core.ModeGuided {
		engOpts := []guided.EngineOption{guided.WithProbes(probes...)}
		if o.Introspection != nil {
			engOpts = append(engOpts, guided.WithIntrospection(o.Introspection))
		}
		eng, err = guided.NewEngine(cfg, engOpts...)
		if err != nil {
			return nil, err
		}
		campaign.SetFrameSource(eng)
		campaign.SetStopHook(eng.PublishStats)
		world.Corpus = eng.CorpusFrames
	}
	// The bench target supports in-place world reuse: every component on
	// it knows how to return to its as-built state, so fleet workers can
	// recycle the world across trials instead of rebuilding it. Reset is
	// the one recipe: the bench first (scheduler and telemetry included),
	// then the guided engine if any, then the campaign, all under the
	// trial's seed; a reset world runs bit-for-bit like one newly built
	// with that seed. Worlds with a fault-injection plan are excluded: the
	// injector's Counts accumulate across Starts, and the babble port it
	// Connects mid-run stays on the bus through Bus.Reset, so a recycled
	// world would not match a fresh one. So are the cluster and vehicle
	// targets (their ECU applications keep state the reset plumbing does
	// not yet cover).
	if bench != nil && o.Plan == nil {
		world.Reset = func(ts fleet.TrialSpec) error {
			bench.Reset()
			if eng != nil {
				eng.Reset(ts.Seed)
			}
			campaign.Reset(ts.Seed)
			return nil
		}
	}
	return &Built{World: world, Injector: inj, Probes: probes, Bench: bench, Cluster: clu}, nil
}

// FromCampaignSpec maps a distributed campaign spec onto the world builder
// inputs: the Spec Build consumes plus the base generator config (per-trial
// seeds are substituted by the caller's factory).
func FromCampaignSpec(spec campaignd.CampaignSpec) (Spec, core.Config, error) {
	checkMode, err := ParseCheckMode(spec.BCMCheck)
	if err != nil {
		return Spec{}, core.Config{}, err
	}
	cfg, err := spec.Config.ToConfig()
	if err != nil {
		return Spec{}, core.Config{}, fmt.Errorf("spec config: %w", err)
	}
	busName := spec.Bus
	if busName == "" {
		busName = "body"
	}
	ts := Spec{
		Target:   spec.Target,
		Bus:      busName,
		Check:    checkMode,
		Stop:     spec.StopOnFinding,
		Recovery: spec.Recovery,
	}
	return ts, cfg, nil
}

// armChaos wires the fault injector and the recovery policy into one
// target bus: the bus gets ISO 11898-1 auto-recovery when requested, and
// the injector learns where to corrupt the wire and which ECUs a
// stall/panic target name resolves to. The fuzzer's own port is attachable
// as detach target "fuzzer".
func armChaos(inj *faults.Injector, recovery bool, b *busPkg.Bus, ecus map[string]*ecu.ECU, fuzzPort *busPkg.Port) {
	if recovery {
		b.SetAutoRecovery(true)
	}
	if inj == nil {
		return
	}
	inj.AttachBus(b)
	for name, e := range ecus {
		inj.AttachECU(name, e)
	}
	inj.AttachPort("fuzzer", fuzzPort)
}
