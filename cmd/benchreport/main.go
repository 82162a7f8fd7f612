// Command benchreport regenerates every table and figure of the paper in
// one run, printing each in a layout close to the original. It is the
// human-readable companion to the root bench_test.go harness.
//
// Usage:
//
//	benchreport [-quick] [-runs 12] [-seed 100]
//	benchreport -trend [-trend-dir .]
//
// -quick trims the expensive experiments (Table V and the ablations run
// fewer repetitions) so the whole report finishes in well under a minute.
// -trend skips the experiments entirely and instead renders the committed
// BENCH_*.json performance snapshots (from cmd/benchperf) as markdown
// trend tables: frames/sec, allocs/op and ns/op per benchmark over time.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// logger is the shared structured stderr logger of the tool.
var logger = telemetry.NewCLILogger(os.Stderr, "benchreport", slog.LevelInfo)

func main() {
	if err := run(os.Args[1:]); err != nil {
		logger.Error("run failed", "err", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "fewer repetitions for the slow experiments")
	runs := fs.Int("runs", 12, "Table V runs per variant (paper: 12)")
	seed := fs.Int64("seed", 100, "base seed")
	trend := fs.Bool("trend", false, "render the committed BENCH_*.json snapshots as markdown trend tables instead")
	trendDir := fs.String("trend-dir", ".", "directory holding the BENCH_*.json snapshots")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trend {
		return runTrend(os.Stdout, *trendDir)
	}
	if *quick && *runs > 3 {
		*runs = 3
	}

	fmt.Println("== Figure 1: testing methods in the automotive industry ==")
	for _, r := range experiments.Figure1() {
		fmt.Printf("  %-28s %5.0f%%  %s\n", r.Method, r.Share, bar(r.Share))
	}

	fmt.Println("\n== Table I: automotive CAN fuzzing tools ==")
	fmt.Printf("  %-16s %-12s %s\n", "Tool", "License", "Approach")
	for _, r := range experiments.Table1() {
		fmt.Printf("  %-16s %-12s %s\n", r.Tool, r.License, r.Approach)
	}

	fmt.Println("\n== Table II: example CAN packets captured from the car ==")
	fmt.Printf("  %-12s %-5s %-6s %s\n", "Time (ms)", "Id", "Length", "Data")
	for _, r := range experiments.Table2(*seed, 5*time.Second, 5) {
		fmt.Printf("  %-12.3f %-5s %-6d % X\n",
			float64(r.Time)/float64(time.Millisecond), r.Frame.ID, r.Frame.Len,
			r.Frame.Data[:r.Frame.Len])
	}

	fmt.Println("\n== Table III: fuzzing elements of a CAN data packet ==")
	fmt.Printf("  %-16s %-20s %s\n", "Item", "Range", "Description")
	for _, r := range experiments.Table3() {
		fmt.Printf("  %-16s %-20s %s\n", r.Item, r.Range, r.Description)
	}
	fmt.Println("  combinatorial explosion (§V):")
	for _, c := range experiments.Table3Combinatorics() {
		fmt.Printf("    %-40s %12d combos  ~%v @1ms\n", c.Space, c.Combinations, c.AtOneMs.Round(time.Minute))
	}

	fmt.Println("\n== Table IV: sample random CAN packet output from the fuzzer ==")
	fmt.Printf("  %-12s %-5s %-6s %s\n", "Time (ms)", "Id", "Length", "Data")
	for _, r := range experiments.Table4(*seed, 6) {
		fmt.Printf("  %-12.3f %-5s %-6d % X\n",
			float64(r.Time)/float64(time.Millisecond), r.Frame.ID, r.Frame.Len,
			r.Frame.Data[:r.Frame.Len])
	}

	fmt.Println("\n== Figure 4: mean byte values, 100000 captured vehicle messages ==")
	f4 := experiments.Figure4(*seed, 100000)
	printMeans(f4)

	fmt.Println("\n== Figure 5: mean byte values, 66144 fuzzer messages ==")
	f5 := experiments.Figure5(*seed, 66144)
	printMeans(f5)
	fmt.Printf("  contrast: vehicle spread %.1f vs fuzzer spread %.1f\n", f4.Spread, f5.Spread)

	fmt.Println("\n== Figure 6: normal vehicle signals (10 s idle) ==")
	f6 := experiments.Figure6(*seed, 10*time.Second)
	printSeries(f6)

	fmt.Println("\n== Figure 7: effect of fuzzing on signals (5 s fuzzed) ==")
	f7 := experiments.Figure7(*seed, 5*time.Second)
	printSeries(f7)
	fmt.Printf("  erratic factor (RPM stddev fuzzed/normal): %.1fx\n",
		f7.Get("DisplayedRPM").StdDev()/maxF(f6.Get("DisplayedRPM").StdDev(), 1))

	fmt.Println("\n== Figure 8: physically invalid value on the simulator ==")
	if f8, ok := experiments.Figure8(*seed, 30*time.Minute); ok {
		fmt.Printf("  cluster displayed %.1f rpm after %v (%d fuzz frames)\n",
			f8.NegativeRPM, f8.Elapsed.Round(time.Millisecond), f8.FramesSent)
	} else {
		fmt.Println("  no invalid value within deadline")
	}

	fmt.Println("\n== Figure 9: crashing a vehicle component ==")
	if f9, ok := experiments.Figure9(*seed, 2*time.Hour); ok {
		fmt.Printf("  crash latched after %v (%d frames); MILs lit: %d, chimes: %d\n",
			f9.TimeToCrash.Round(time.Millisecond), f9.FramesToCrash,
			f9.MILsDuringFuzz, f9.ChimesDuringFuzz)
		fmt.Printf("  after power cycle: MILs %d (paper: clear), crash persists: %v (paper: yes)\n",
			f9.MILsAfterPowerCycle, f9.CrashAfterPowerCycle)
		fmt.Printf("  after secured UDS service write: crash persists: %v\n", f9.CrashAfterServiceFix)
	} else {
		fmt.Println("  cluster did not crash within deadline")
	}

	fmt.Println("\n== Table V: fuzzer run times to activate unlock ==")
	fmt.Printf("  (%d runs per variant, seeds %d..%d)\n", *runs, *seed, *seed+int64(*runs)-1)
	for _, row := range experiments.Table5(*seed, *runs, 12*time.Hour) {
		fmt.Printf("  %-36s times(s): %s\n", row.Message, row.Stats.Seconds())
		fmt.Printf("  %-36s mean %ds  median %ds  min %ds  max %ds  timeouts %d\n", "",
			int(row.Stats.Mean()/time.Second), int(row.Stats.Median()/time.Second),
			int(row.Stats.Min()/time.Second), int(row.Stats.Max()/time.Second), row.TimedOut)
	}

	fmt.Println("\n== Extension: coverage-guided vs blind random fuzzing ==")
	gRuns := minI(*runs, 6)
	gvr := experiments.GuidedVsRandom(*seed, gRuns, 2*time.Hour)
	fmt.Printf("  (%d runs per arm, seeds %d..%d)\n", gRuns, *seed, *seed+int64(gRuns)-1)
	for _, row := range []experiments.Table5Row{gvr.Random, gvr.Guided} {
		fmt.Printf("  %-36s times(s): %s\n", row.Message, row.Stats.Seconds())
		fmt.Printf("  %-36s median %v  mean %v  timeouts %d\n", "", row.Stats.Median().Round(100*time.Millisecond),
			row.Stats.Mean().Round(100*time.Millisecond), row.TimedOut)
	}
	fmt.Printf("  median speedup %.1fx, merged corpus %d frames\n", gvr.MedianSpeedup, len(gvr.MergedCorpus))

	fmt.Println("\n== Ablation: targeted vs blind fuzzing ==")
	tb := experiments.AblationTargetedVsBlind(*seed, minI(*runs, 3), 12*time.Hour)
	fmt.Printf("  blind mean %v, targeted mean %v, speedup %.0fx\n",
		tb.Blind.Mean().Round(time.Second), tb.Targeted.Mean().Round(time.Millisecond), tb.SpeedupMean)

	fmt.Println("\n== Ablation: frequency-anomaly IDS ==")
	idsRes := experiments.AblationIDS(*seed)
	fmt.Printf("  quiet minute: %d false positives over %d learned ids\n",
		idsRes.FalsePositives, idsRes.KnownIDs)
	fmt.Printf("  blind fuzz detected after %v (%d fuzz frames)\n",
		idsRes.DetectionLatency.Round(time.Millisecond), idsRes.FramesBeforeDetection)

	fmt.Println("\n== Ablation: CAN FD bulk transfer ==")
	fd := experiments.AblationCANFD(4096)
	fmt.Printf("  4096 bytes: classic %v, FD(BRS 2M) %v, speedup %.1fx\n",
		fd.ClassicTime.Round(time.Microsecond), fd.FDTime.Round(time.Microsecond), fd.Speedup)

	fmt.Println("\n== Ablation: data-link-layer (bit-level) fuzzing ==")
	dl := experiments.AblationDataLinkFuzz(*seed, 10*time.Second)
	fmt.Printf("  %d injected, %d error frames, %d still valid; victim degraded=%v (REC %d)\n",
		dl.Injected, dl.ErrorFrames, dl.StillValid, dl.VictimErrorPassive, dl.VictimREC)

	fmt.Println("\n== Ablation: command authentication ==")
	auth := experiments.AblationAuthentication(*seed, 30*time.Minute)
	fmt.Printf("  plain BCM: fuzzer unlocked=%v after %v\n",
		auth.PlainUnlocked, auth.PlainTime.Round(time.Second))
	fmt.Printf("  MAC BCM:   fuzzer unlocked=%v after %d frames; paired app still works=%v\n",
		auth.AuthUnlocked, auth.AuthFramesTried, auth.LegitWorks)

	fmt.Println("\n== Ablation: gateway protection ==")
	gw := experiments.AblationGateway(*seed, time.Hour)
	fmt.Printf("  forward-all gateway: unlocked=%v after %v\n",
		gw.ForwardAllUnlocked, gw.ForwardAllTime.Round(time.Second))
	fmt.Printf("  allow-list gateway:  unlocked=%v (%d frames blocked)\n",
		gw.AllowListUnlocked, gw.AllowListBlocked)

	return nil
}

func printMeans(r experiments.ByteMeansResult) {
	fmt.Printf("  frames: %d\n", r.Frames)
	for i, m := range r.Means {
		fmt.Printf("    byte %d: %6.1f  %s\n", i+1, m, bar(m/255*100))
	}
	fmt.Printf("  overall mean %.1f, spread %.1f, entropy %.2f bits, chi-square %.0f (uniform@p99: %v)\n",
		r.Overall, r.Spread, r.Entropy, r.ChiSquare, r.Uniform)
}

func printSeries(r experiments.SignalsResult) {
	fmt.Printf("  %-18s %10s %10s %10s %10s %10s\n", "signal", "min", "max", "mean", "stddev", "maxstep")
	for _, s := range r.Series {
		fmt.Printf("  %-18s %10.1f %10.1f %10.1f %10.1f %10.1f\n",
			s.Name, s.Min(), s.Max(), s.Mean(), s.StdDev(), s.MaxStep())
	}
}

func bar(pct float64) string {
	n := int(pct / 2)
	if n < 0 {
		n = 0
	}
	if n > 50 {
		n = 50
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}
