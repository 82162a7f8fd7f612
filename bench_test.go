package repro

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper, plus the ablations from DESIGN.md §4. Each benchmark executes the
// corresponding experiment end-to-end on the simulated stack and reports
// the headline quantities via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the paper's evaluation. The expensive experiments honour
// REPRO_TABLE5_RUNS (default 12, the paper's run count) so CI can trim
// them.

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/target"
	"repro/internal/telemetry"
	"repro/internal/testbench"
)

// campaignBench is the standard one-virtual-second bench-fuzzing workload,
// built once and recycled with the world-reuse machinery: every op resets
// the world in place and replays the same seed. The optional telemetry
// plane makes it the telemetry-overhead yardstick: BenchmarkCampaign
// exercises the nil-receiver no-op hooks, and BenchmarkCampaignTelemetry
// the live counters and tracer.
type campaignBench struct {
	sched    *clock.Scheduler
	bench    *testbench.Bench
	campaign *core.Campaign
}

func newCampaignBench(tb testing.TB, tel *telemetry.Telemetry) *campaignBench {
	sched := clock.New()
	bench := testbench.New(sched, testbench.Config{AckUnlock: true})
	bench.Instrument(tel)
	var opts []core.Option
	if tel != nil {
		opts = append(opts, core.WithTelemetry(tel))
	}
	campaign, err := core.NewCampaign(sched, bench.AttachFuzzer("fuzzer"), core.Config{
		Seed: 7, Interval: time.Millisecond,
	}, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	campaign.AddOracle(bench.UnlockOracle())
	return &campaignBench{sched: sched, bench: bench, campaign: campaign}
}

// run executes one virtual second of fuzzing on the recycled world.
func (cb *campaignBench) run() uint64 {
	cb.bench.Reset()
	cb.campaign.Reset(7)
	cb.campaign.Start()
	cb.sched.RunUntil(time.Second)
	cb.campaign.Stop()
	return cb.campaign.FramesSent()
}

// BenchmarkCampaign is the uninstrumented baseline: every telemetry hook
// compiled in but nil. Compare with BenchmarkCampaignTelemetry to bound
// the cost of the no-op path (budget: <5%).
func BenchmarkCampaign(b *testing.B) {
	cb := newCampaignBench(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	var frames uint64
	for i := 0; i < b.N; i++ {
		frames = cb.run()
	}
	b.ReportMetric(float64(frames), "frames")
}

// BenchmarkCampaignTelemetry runs the same campaign with metrics and the
// event tracer live.
func BenchmarkCampaignTelemetry(b *testing.B) {
	cb := newCampaignBench(b, telemetry.New(0))
	b.ReportAllocs()
	b.ResetTimer()
	var frames uint64
	for i := 0; i < b.N; i++ {
		frames = cb.run()
	}
	b.ReportMetric(float64(frames), "frames")
}

// table5Runs returns the per-variant run count for Table V style benches.
// An explicit REPRO_TABLE5_RUNS wins; otherwise -short trims the paper's
// 12 runs to 4.
func table5Runs() int {
	if s := os.Getenv("REPRO_TABLE5_RUNS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	if testing.Short() {
		return 4
	}
	return 12
}

// skipIfShort skips the benchmarks whose experiments must run multi-hour
// virtual campaigns to completion and so cannot be trimmed by run count.
func skipIfShort(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping long virtual-time experiment in -short mode")
	}
}

func BenchmarkFigure1TestingMethods(b *testing.B) {
	var fuzzShare float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure1()
		for _, r := range rows {
			if r.Method == "Fuzz testing" {
				fuzzShare = r.Share
			}
		}
	}
	b.ReportMetric(fuzzShare, "fuzzing-share-%")
}

func BenchmarkTable1FuzzingTools(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		n = len(experiments.Table1())
	}
	b.ReportMetric(float64(n), "tools")
}

func BenchmarkTable2CapturedPackets(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		rows = len(experiments.Table2(1, 5*time.Second, 5))
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkTable3FuzzSpace(b *testing.B) {
	var oneByteCombos uint64
	for i := 0; i < b.N; i++ {
		calcs := experiments.Table3Combinatorics()
		oneByteCombos = calcs[1].Combinations
	}
	b.ReportMetric(float64(oneByteCombos), "combos-1byte")
}

func BenchmarkTable4FuzzerOutput(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		rows = len(experiments.Table4(2, 6))
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkFigure4VehicleByteMeans(b *testing.B) {
	var res experiments.ByteMeansResult
	for i := 0; i < b.N; i++ {
		res = experiments.Figure4(1, 100000)
	}
	b.ReportMetric(res.Overall, "overall-mean")
	b.ReportMetric(res.Spread, "spread")
}

func BenchmarkFigure5FuzzerByteMeans(b *testing.B) {
	var res experiments.ByteMeansResult
	for i := 0; i < b.N; i++ {
		res = experiments.Figure5(1, 66144)
	}
	b.ReportMetric(res.Overall, "overall-mean") // paper: 127
	b.ReportMetric(res.Spread, "spread")
	b.ReportMetric(res.Entropy, "entropy-bits")
	if !res.Uniform {
		b.Fatal("fuzzer output failed the uniformity check")
	}
}

func BenchmarkFigure6NormalSignals(b *testing.B) {
	var stddev float64
	for i := 0; i < b.N; i++ {
		res := experiments.Figure6(1, 10*time.Second)
		stddev = res.Get("DisplayedRPM").StdDev()
	}
	b.ReportMetric(stddev, "rpm-stddev")
}

func BenchmarkFigure7FuzzedSignals(b *testing.B) {
	var stddev, maxstep float64
	for i := 0; i < b.N; i++ {
		res := experiments.Figure7(1, 5*time.Second)
		rpm := res.Get("DisplayedRPM")
		stddev, maxstep = rpm.StdDev(), rpm.MaxStep()
	}
	b.ReportMetric(stddev, "rpm-stddev")
	b.ReportMetric(maxstep, "rpm-maxstep")
}

func BenchmarkFigure8InvalidValue(b *testing.B) {
	skipIfShort(b)
	var rpm float64
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		res, ok := experiments.Figure8(1, 30*time.Minute)
		if !ok {
			b.Fatal("no negative RPM within deadline")
		}
		rpm, elapsed = res.NegativeRPM, res.Elapsed
	}
	b.ReportMetric(rpm, "displayed-rpm")
	b.ReportMetric(elapsed.Seconds(), "virtual-sec")
}

func BenchmarkFigure9ClusterCrash(b *testing.B) {
	skipIfShort(b)
	var res experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		var ok bool
		res, ok = experiments.Figure9(1, 2*time.Hour)
		if !ok {
			b.Fatal("cluster did not crash within deadline")
		}
		if !res.CrashAfterPowerCycle || res.MILsAfterPowerCycle != 0 {
			b.Fatal("Fig 9 shape violated")
		}
	}
	b.ReportMetric(res.TimeToCrash.Seconds(), "virtual-sec-to-crash")
	b.ReportMetric(float64(res.MILsDuringFuzz), "mils")
	b.ReportMetric(float64(res.ChimesDuringFuzz), "chimes")
}

func BenchmarkTable5UnlockTimes(b *testing.B) {
	runs := table5Runs()
	var rows []experiments.Table5Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table5(100, runs, 12*time.Hour)
	}
	loose, strict := rows[0], rows[1]
	b.ReportMetric(loose.Stats.Mean().Seconds(), "mean-sec-byteonly")     // paper: 431
	b.ReportMetric(strict.Stats.Mean().Seconds(), "mean-sec-plus-length") // paper: 1959
	if loose.Stats.Mean() > 0 {
		b.ReportMetric(float64(strict.Stats.Mean())/float64(loose.Stats.Mean()), "slowdown-x")
	}
	b.Logf("Table V (%d runs/variant):", runs)
	for _, r := range rows {
		b.Logf("  %-36s times(s) %s mean %ds (timeouts %d)",
			r.Message, r.Stats.Seconds(), int(r.Stats.Mean()/time.Second), r.TimedOut)
	}
}

func BenchmarkAblationTargetedVsBlind(b *testing.B) {
	runs := table5Runs()
	if runs > 6 {
		runs = 6 // blind runs dominate; 6 is plenty for the mean
	}
	var res experiments.TargetedVsBlindResult
	for i := 0; i < b.N; i++ {
		res = experiments.AblationTargetedVsBlind(200, runs, 12*time.Hour)
	}
	b.ReportMetric(res.SpeedupMean, "speedup-x")
	b.ReportMetric(res.Blind.Mean().Seconds(), "blind-mean-sec")
	b.ReportMetric(res.Targeted.Mean().Seconds(), "targeted-mean-sec")
}

func BenchmarkAblationOracleStrictness(b *testing.B) {
	runs := table5Runs()
	var rows []experiments.Table5Row
	for i := 0; i < b.N; i++ {
		rows = experiments.AblationOracleStrictness(300, runs, 12*time.Hour)
	}
	for _, r := range rows {
		b.Logf("  %-40s mean %v (timeouts %d)", r.Message, r.Stats.Mean().Round(time.Millisecond), r.TimedOut)
	}
	if rows[0].Stats.Mean() > 0 {
		b.ReportMetric(float64(rows[2].Stats.Mean())/float64(rows[0].Stats.Mean()), "twobyte-vs-byte-x")
	}
}

func BenchmarkAblationPacing(b *testing.B) {
	skipIfShort(b)
	intervals := []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	}
	var res []experiments.PacingResult
	for i := 0; i < b.N; i++ {
		res = experiments.AblationPacing(3, intervals, 24*time.Hour)
	}
	for _, r := range res {
		b.Logf("  interval %-6v time-to-unlock %-12v bus-load %.3f",
			r.Interval, r.TimeToUnlock.Round(time.Second), r.BusLoad)
	}
	if res[0].TimeToUnlock > 0 {
		b.ReportMetric(res[0].BusLoad, "load-at-1ms")
	}
}

func BenchmarkAblationGateway(b *testing.B) {
	var res experiments.GatewayResult
	for i := 0; i < b.N; i++ {
		res = experiments.AblationGateway(5, time.Hour)
		if !res.ForwardAllUnlocked || res.AllowListUnlocked {
			b.Fatal("gateway ablation shape violated")
		}
	}
	b.ReportMetric(res.ForwardAllTime.Seconds(), "forwardall-unlock-sec")
	b.ReportMetric(float64(res.AllowListBlocked), "allowlist-blocked-frames")
}

func BenchmarkAblationAuthentication(b *testing.B) {
	var res experiments.AuthResult
	for i := 0; i < b.N; i++ {
		res = experiments.AblationAuthentication(9, 30*time.Minute)
		if res.AuthUnlocked || !res.PlainUnlocked || !res.LegitWorks {
			b.Fatal("authentication ablation shape violated")
		}
	}
	b.ReportMetric(res.PlainTime.Seconds(), "plain-unlock-sec")
	b.ReportMetric(float64(res.AuthFramesTried), "hardened-frames-survived")
}

func BenchmarkAblationCANFD(b *testing.B) {
	var res experiments.FDTransferResult
	for i := 0; i < b.N; i++ {
		res = experiments.AblationCANFD(4096)
	}
	b.ReportMetric(res.Speedup, "fd-speedup-x")
	b.ReportMetric(res.ClassicTime.Seconds()*1000, "classic-ms")
	b.ReportMetric(res.FDTime.Seconds()*1000, "fd-ms")
}

func BenchmarkAblationDataLinkFuzz(b *testing.B) {
	var res experiments.DataLinkResult
	for i := 0; i < b.N; i++ {
		res = experiments.AblationDataLinkFuzz(4, 10*time.Second)
		if !res.VictimErrorPassive {
			b.Fatal("data-link fuzz failed to degrade the victim")
		}
	}
	b.ReportMetric(float64(res.ErrorFrames), "error-frames")
	b.ReportMetric(float64(res.StillValid), "still-valid-frames")
}

func BenchmarkAblationIDS(b *testing.B) {
	var res experiments.IDSResult
	for i := 0; i < b.N; i++ {
		res = experiments.AblationIDS(6)
		if res.FalsePositives != 0 || res.DetectionLatency == 0 {
			b.Fatal("IDS ablation shape violated")
		}
	}
	b.ReportMetric(res.DetectionLatency.Seconds()*1000, "detect-latency-ms")
	b.ReportMetric(float64(res.FramesBeforeDetection), "fuzz-frames-tolerated")
}

// fleetTable5Factory builds the Table V workload for the fleet benchmark:
// one full blind bench-unlock world per trial.
func fleetTable5Factory(spec fleet.TrialSpec) (*fleet.World, error) {
	b, err := target.Build(unlockSpec, core.Config{Seed: spec.Seed}, target.Options{})
	if err != nil {
		return nil, err
	}
	return b.World, nil
}

// BenchmarkFleet measures fleet scaling on the Table V workload: the same
// trial set at 1, 2, 4 and NumCPU workers. Per-trial results are identical
// at every width (the determinism guarantee), so the trials/sec metric
// isolates pure orchestration speedup — expect near-linear scaling until
// the trial count stops dividing evenly across the pool.
func BenchmarkFleet(b *testing.B) {
	trials := table5Runs()
	widths := []int{1, 2, 4, runtime.NumCPU()}
	seen := map[int]bool{}
	for _, workers := range widths {
		if workers < 1 || seen[workers] {
			continue
		}
		seen[workers] = true
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			// The pool carries reset-capable worlds across iterations, so
			// after the first run every trial recycles a warm world — the
			// production shape for repeated fleets over one target config.
			pool := &fleet.WorldPool{}
			var rep *fleet.Report
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = fleet.Run(fleet.Config{
					Trials:      trials,
					Workers:     workers,
					BaseSeed:    100,
					MaxPerTrial: 12 * time.Hour,
					Pool:        pool,
				}, fleetTable5Factory)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.FoundFindings), "findings")
			b.ReportMetric(rep.VirtualTimeTotal.Seconds(), "virtual-sec")
			b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}
