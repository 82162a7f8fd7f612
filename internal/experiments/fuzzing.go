package experiments

import (
	"time"

	"repro/internal/analysis"
	"repro/internal/bcm"
	"repro/internal/bus"
	"repro/internal/capture"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/target"
)

// Table4 transmits rows random frames onto an otherwise idle bus and
// returns the capture — the paper's "Sample random CAN packet output from
// the fuzzer" with its millisecond-spaced timestamps and varied lengths.
func Table4(seed int64, rows int) []capture.Record {
	sched := clock.New()
	b := bus.New(sched)
	rec := capture.NewRecorder(b, rows)
	port := b.Connect("fuzzer")
	campaign, err := core.NewCampaign(sched, port, core.Config{Seed: seed},
		core.WithMaxFrames(uint64(rows)))
	if err != nil {
		panic(err) // static configuration cannot fail
	}
	campaign.RunFor(time.Duration(rows+10) * time.Millisecond)
	return rec.Trace().Records()
}

// Fig9Result is the component-damage experiment outcome.
type Fig9Result struct {
	// TimeToCrash is the fuzzing time until the crash latched.
	TimeToCrash time.Duration
	// FramesToCrash is the fuzz frame count at that point.
	FramesToCrash uint64
	// MILsDuringFuzz is the number of lamps lit when fuzzing stopped.
	MILsDuringFuzz int
	// ChimesDuringFuzz is the warning-sound count.
	ChimesDuringFuzz uint64
	// MILsAfterPowerCycle is the lamp count after cycling power (paper: 0).
	MILsAfterPowerCycle int
	// CrashAfterPowerCycle reports whether the crash display persisted
	// (paper: true — "the crash message would not clear").
	CrashAfterPowerCycle bool
	// CrashAfterServiceFix reports the flag state after the secured UDS
	// write a service tool would perform (extension: false).
	CrashAfterServiceFix bool
}

// Figure9 reproduces the bench fuzz of the real instrument cluster: MILs
// and chimes appear, the crash state latches, a power cycle clears the
// MILs but not the crash. maxDur bounds the hunt.
func Figure9(seed int64, maxDur time.Duration) (Fig9Result, bool) {
	b, err := target.Build(target.Spec{Target: "cluster", Stop: true}, core.Config{Seed: seed}, target.Options{})
	if err != nil {
		panic(err) // static configuration cannot fail
	}
	sched, c := b.World.Sched, b.Cluster
	clusterECU := c.ECU()
	finding, ok := b.World.Campaign.RunUntilFinding(maxDur)
	if !ok {
		return Fig9Result{}, false
	}
	res := Fig9Result{
		TimeToCrash:      finding.Elapsed,
		FramesToCrash:    finding.FramesSent,
		MILsDuringFuzz:   len(clusterECU.MILs()),
		ChimesDuringFuzz: clusterECU.Chimes(),
	}
	// "Cycling the power to the cluster removes any MILs that became
	// illuminated. Unfortunately the crash message would not clear."
	clusterECU.PowerCycle()
	sched.RunFor(time.Second)
	res.MILsAfterPowerCycle = len(clusterECU.MILs())
	res.CrashAfterPowerCycle = c.Crashed()

	// Extension: the secured service-tool write clears it.
	entry := c.DIDEntries()[cluster.DIDCrashFlag]
	if err := entry.Write([]byte{0}); err != nil {
		return res, true
	}
	res.CrashAfterServiceFix = c.Crashed()
	return res, true
}

// Table5Row is one row of Table V: repeated unlock runs under one parser
// variant.
type Table5Row struct {
	// Message is the paper's row label (the BCM check description).
	Message string
	// Check is the parser variant.
	Check bcm.CheckMode
	// Stats holds the run durations and summary statistics.
	Stats analysis.RunStats
	// TimedOut counts runs that hit the per-run deadline (excluded from
	// Stats).
	TimedOut int
}

// Table5 runs the unlock experiment `runs` times per parser variant with
// seeds baseSeed+i and returns one row per variant, reproducing Table V's
// two rows (plus optionally the predicted two-byte variant via
// AblationOracleStrictness). maxPerRun bounds each run.
func Table5(baseSeed int64, runs int, maxPerRun time.Duration) []Table5Row {
	variants := []bcm.CheckMode{bcm.CheckByteOnly, bcm.CheckByteAndLength}
	rows := make([]Table5Row, 0, len(variants))
	for _, check := range variants {
		row, _ := runUnlockRow(check, runs, maxPerRun, func(i int) core.Config {
			return core.Config{Seed: baseSeed + int64(i)}
		})
		rows = append(rows, row)
	}
	return rows
}

// unlockExperiment builds one Table V bench world through target.Build:
// the unlock-ack oracle armed, the campaign stopping at its first finding,
// and a guided engine as its frame source when cfg.Mode asks for one.
func unlockExperiment(check bcm.CheckMode, cfg core.Config) *target.Built {
	b, err := target.Build(target.Spec{Target: "bench", Check: check, Stop: true}, cfg, target.Options{})
	if err != nil {
		panic(err) // static configuration cannot fail
	}
	return b
}

// runUnlockRow executes one unlock-experiment row, blind or guided by the
// configs' Mode, and returns it with the guided trials' merged corpus (nil
// when blind). cfgFor(i) is run i's fuzzer configuration and may vary only
// Seed: the runs execute on a fleet.Run worker pool where each worker
// builds one bench world from the first config it sees and recycles it for
// its later runs, reseeding it from cfgFor(i).Seed. The fleet's own derived
// seeds are intentionally unused (Table V rows predate the splitmix stream
// and keep their published values). A recycled world runs bit-for-bit like
// a fresh one and the row is assembled from the fleet's index-ordered
// results, so the Stats are those of a sequential cold loop.
func runUnlockRow(check bcm.CheckMode, runs int, maxPerRun time.Duration, cfgFor func(i int) core.Config) (Table5Row, []string) {
	row := Table5Row{Message: check.String(), Check: check}
	if cfgFor(0).Mode == core.ModeGuided {
		row.Message += " (guided)"
	}
	rep, err := fleet.Run(fleet.Config{
		Trials:      runs,
		MaxPerTrial: maxPerRun,
	}, func(spec fleet.TrialSpec) (*fleet.World, error) {
		w := unlockExperiment(check, cfgFor(spec.Index)).World
		reset := w.Reset
		w.Reset = func(ts fleet.TrialSpec) error {
			ts.Seed = cfgFor(ts.Index).Seed
			return reset(ts)
		}
		return w, nil
	})
	if err != nil {
		panic(err) // static configuration cannot fail
	}
	for _, tr := range rep.Results {
		switch tr.Status {
		case fleet.StatusFinding:
			row.Stats.Times = append(row.Stats.Times, tr.TimeToFinding)
		case fleet.StatusTimeout:
			row.TimedOut++
		default:
			// A panicking or unconstructible bench is a harness bug, not a
			// Table V outcome.
			panic("experiments: unlock trial ended " + tr.Status + ": " + tr.PanicValue + tr.Err)
		}
	}
	return row, rep.MergedCorpus
}
