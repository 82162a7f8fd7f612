package experiments

import (
	"time"

	"repro/internal/bus"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ecu"
	"repro/internal/faults"
	"repro/internal/oracle"
)

// Chaos experiment: the paper's accidental cluster brick (§VI — fuzzing
// drove the real instrument cluster into a state needing a battery pull)
// recast as a *deliberate*, injected-then-recovered fault. A fault plan
// corrupts every frame in a window so the fuzzer node drives itself to
// bus-off mid-campaign, then jams the wire and stalls the cluster for good
// measure. With ISO 11898-1 auto-recovery plus the campaign resilience
// policy the node rejoins and the hunt for the Figure 9 crash continues;
// without them the dead-bus watchdog ends the run with a classified
// finding instead of spinning until the deadline.

// chaosPlan is the canonical fault schedule of the cluster-brick chaos
// scenario. The corruption window is long enough to push the transmitter's
// TEC past 255 (32 corrupted frames at +8 each) at the campaign's 1 ms
// pace.
func chaosPlan(seed int64) faults.Plan {
	return faults.Plan{Seed: seed, Specs: []faults.Spec{
		{Kind: faults.KindCorrupt, Prob: 1, At: 50 * time.Millisecond, For: 50 * time.Millisecond},
		{Kind: faults.KindJam, At: 150 * time.Millisecond, For: 10 * time.Millisecond},
		{Kind: faults.KindStall, Target: "cluster", At: 200 * time.Millisecond, For: 50 * time.Millisecond},
	}}
}

// ChaosResult is the chaos cluster-brick outcome.
type ChaosResult struct {
	// Found reports whether the run ended on a finding before maxDur.
	Found bool
	// Finding is the finding that ended the run (zero value when !Found).
	// With recovery it is the cluster-crash oracle; without, the watchdog.
	Finding core.Finding
	// Report is the campaign report, including the resilience section and
	// the per-kind injected-fault counts.
	Report core.Report
	// BusOffs and Recoveries count the fuzzer port's bus-off entries and
	// ISO 11898-1 rejoins.
	BusOffs, Recoveries uint64
	// FuzzerState is the fuzzer port's fault-confinement state at the end.
	FuzzerState bus.NodeState
	// ClusterCrashed reports the latched crash display.
	ClusterCrashed bool
	// Elapsed is the virtual time when the run ended.
	Elapsed time.Duration
}

// ChaosClusterBrick fuzzes the bench cluster under the chaos fault plan.
// When recovery is true the bus auto-recovers bus-off nodes and the
// campaign runs the default resilience policy, so the injected brick heals
// and the run ends on the cluster crash; when false the node stays bus-off
// and the watchdog classifies the dead bus. maxDur bounds the hunt. The
// world is wired by hand rather than through target.Build: it runs the
// default resilience policy even without bus recovery and arms the
// ECU-crash oracle (oracle.Crash), a combination target.Build does not
// offer.
func ChaosClusterBrick(seed int64, maxDur time.Duration, recovery bool) ChaosResult {
	sched := clock.New()
	busOpts := []bus.Option{bus.WithName("bench")}
	if recovery {
		busOpts = append(busOpts, bus.WithAutoRecovery())
	}
	b := bus.New(sched, busOpts...)
	clusterECU := ecu.New("cluster", sched, b.Connect("cluster"))
	c := cluster.New(clusterECU)
	port := b.Connect("fuzzer")

	inj := faults.New(sched, chaosPlan(seed))
	inj.AttachBus(b)
	inj.AttachECU("cluster", clusterECU)

	campaign, err := core.NewCampaign(sched, port, core.Config{Seed: seed},
		core.WithStopOnFinding(),
		core.WithResilience(core.DefaultResilience()),
		core.WithFaultCounts(inj.Counts))
	if err != nil {
		panic(err) // static configuration cannot fail
	}
	campaign.AddOracle(oracle.Crash("cluster-crash", 10*time.Millisecond,
		c.Crashed, func() string { return "persistent CRASH display latched" }))
	if err := inj.Start(); err != nil {
		panic(err)
	}
	finding, found := campaign.RunUntilFinding(maxDur)
	inj.Stop()

	st := port.Stats()
	return ChaosResult{
		Found:          found,
		Finding:        finding,
		Report:         campaign.BuildReport(),
		BusOffs:        st.BusOffs,
		Recoveries:     st.Recoveries,
		FuzzerState:    port.State(),
		ClusterCrashed: c.Crashed(),
		Elapsed:        sched.Now(),
	}
}
