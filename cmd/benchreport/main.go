// Command benchreport regenerates every table, figure and ablation of the
// paper in one run, printing each in a layout close to the original. It is
// the one program behind the numbers EXPERIMENTS.md quotes: the default
// report is pinned byte for byte by testdata/benchreport_golden.txt.
//
// Usage:
//
//	benchreport [-runs 12] [-seed 100]
//
// -runs sets the repetitions of Table V and the oracle-strictness
// ablation; the guided and targeted comparisons run at most 6 and 3 of
// them. Every section derives its seeds from -seed.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// logger is the shared structured stderr logger of the tool.
var logger = telemetry.NewCLILogger(os.Stderr, "benchreport", slog.LevelInfo)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		logger.Error("run failed", "err", err)
		os.Exit(1)
	}
}

// parseFlags reads the report's two flags: the Table V and
// oracle-strictness repetitions and the base seed.
func parseFlags(args []string) (runs int, seed int64, err error) {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	fs.IntVar(&runs, "runs", 12, "Table V and oracle-strictness runs per variant (paper: 12)")
	fs.Int64Var(&seed, "seed", 100, "base seed")
	err = fs.Parse(args)
	return runs, seed, err
}

func run(args []string, w io.Writer) error {
	runs, seed, err := parseFlags(args)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "== Figure 1: testing methods in the automotive industry ==")
	for _, r := range experiments.Figure1() {
		fmt.Fprintf(w, "  %-28s %5.0f%%  %s\n", r.Method, r.Share, bar(r.Share))
	}

	fmt.Fprintln(w, "\n== Table I: automotive CAN fuzzing tools ==")
	fmt.Fprintf(w, "  %-16s %-12s %s\n", "Tool", "License", "Approach")
	for _, r := range experiments.Table1() {
		fmt.Fprintf(w, "  %-16s %-12s %s\n", r.Tool, r.License, r.Approach)
	}

	fmt.Fprintln(w, "\n== Table II: example CAN packets captured from the car ==")
	fmt.Fprintf(w, "  %-12s %-5s %-6s %s\n", "Time (ms)", "Id", "Length", "Data")
	for _, r := range experiments.Table2(seed, 5*time.Second, 5) {
		fmt.Fprintf(w, "  %-12.3f %-5s %-6d % X\n",
			float64(r.Time)/float64(time.Millisecond), r.Frame.ID, r.Frame.Len,
			r.Frame.Data[:r.Frame.Len])
	}

	fmt.Fprintln(w, "\n== Table III: fuzzing elements of a CAN data packet ==")
	fmt.Fprintf(w, "  %-16s %-20s %s\n", "Item", "Range", "Description")
	for _, r := range experiments.Table3() {
		fmt.Fprintf(w, "  %-16s %-20s %s\n", r.Item, r.Range, r.Description)
	}
	fmt.Fprintln(w, "  combinatorial explosion (§V):")
	for _, c := range experiments.Table3Combinatorics() {
		fmt.Fprintf(w, "    %-40s %12d combos  ~%v @1ms\n", c.Space, c.Combinations, c.AtOneMs.Round(time.Minute))
	}

	fmt.Fprintln(w, "\n== Table IV: sample random CAN packet output from the fuzzer ==")
	fmt.Fprintf(w, "  %-12s %-5s %-6s %s\n", "Time (ms)", "Id", "Length", "Data")
	for _, r := range experiments.Table4(seed, 6) {
		fmt.Fprintf(w, "  %-12.3f %-5s %-6d % X\n",
			float64(r.Time)/float64(time.Millisecond), r.Frame.ID, r.Frame.Len,
			r.Frame.Data[:r.Frame.Len])
	}

	fmt.Fprintln(w, "\n== Figure 4: mean byte values, 100000 captured vehicle messages ==")
	f4 := experiments.Figure4(seed, 100000)
	printMeans(w, f4)

	fmt.Fprintln(w, "\n== Figure 5: mean byte values, 66144 fuzzer messages ==")
	f5 := experiments.Figure5(seed, 66144)
	printMeans(w, f5)
	fmt.Fprintf(w, "  contrast: vehicle spread %.1f vs fuzzer spread %.1f\n", f4.Spread, f5.Spread)

	fmt.Fprintln(w, "\n== Figure 6: normal vehicle signals (10 s idle) ==")
	f6 := experiments.Figure6(seed, 10*time.Second)
	printSeries(w, f6)

	fmt.Fprintln(w, "\n== Figure 7: effect of fuzzing on signals (5 s fuzzed) ==")
	f7 := experiments.Figure7(seed, 5*time.Second)
	printSeries(w, f7)
	fmt.Fprintf(w, "  erratic factor (RPM stddev fuzzed/normal): %.1fx\n",
		f7.Get("DisplayedRPM").StdDev()/maxF(f6.Get("DisplayedRPM").StdDev(), 1))

	fmt.Fprintln(w, "\n== Figure 8: physically invalid value on the simulator ==")
	if f8, ok := experiments.Figure8(seed, 30*time.Minute); ok {
		fmt.Fprintf(w, "  cluster displayed %.1f rpm after %v (%d fuzz frames)\n",
			f8.NegativeRPM, f8.Elapsed.Round(time.Millisecond), f8.FramesSent)
	} else {
		fmt.Fprintln(w, "  no invalid value within deadline")
	}

	fmt.Fprintln(w, "\n== Figure 9: crashing a vehicle component ==")
	if f9, ok := experiments.Figure9(seed, 2*time.Hour); ok {
		fmt.Fprintf(w, "  crash latched after %v (%d frames); MILs lit: %d, chimes: %d\n",
			f9.TimeToCrash.Round(time.Millisecond), f9.FramesToCrash,
			f9.MILsDuringFuzz, f9.ChimesDuringFuzz)
		fmt.Fprintf(w, "  after power cycle: MILs %d (paper: clear), crash persists: %v (paper: yes)\n",
			f9.MILsAfterPowerCycle, f9.CrashAfterPowerCycle)
		fmt.Fprintf(w, "  after secured UDS service write: crash persists: %v\n", f9.CrashAfterServiceFix)
	} else {
		fmt.Fprintln(w, "  cluster did not crash within deadline")
	}

	fmt.Fprintln(w, "\n== Table V: fuzzer run times to activate unlock ==")
	fmt.Fprintf(w, "  (%d runs per variant, seeds %d..%d)\n", runs, seed, seed+int64(runs)-1)
	for _, row := range experiments.Table5(seed, runs, 12*time.Hour) {
		fmt.Fprintf(w, "  %-36s times(s): %s\n", row.Message, row.Stats.Seconds())
		fmt.Fprintf(w, "  %-36s mean %ds  median %ds  min %ds  max %ds  timeouts %d\n", "",
			seconds(row.Stats.Mean()), seconds(row.Stats.Median()),
			seconds(row.Stats.Min()), seconds(row.Stats.Max()), row.TimedOut)
	}

	fmt.Fprintln(w, "\n== Ablation: oracle strictness (§VII two-byte prediction) ==")
	fmt.Fprintf(w, "  (%d runs per variant, seeds %d..%d, command id 215 only)\n", runs, seed, seed+int64(runs)-1)
	strict := experiments.AblationOracleStrictness(seed, runs, 12*time.Hour)
	for _, row := range strict {
		fmt.Fprintf(w, "  %-38s mean %v  median %v  timeouts %d\n", row.Message,
			row.Stats.Mean().Round(10*time.Millisecond), row.Stats.Median().Round(10*time.Millisecond), row.TimedOut)
	}
	if m := strict[0].Stats.Mean(); m > 0 {
		fmt.Fprintf(w, "  two bytes vs byte only: %.0fx\n", float64(strict[2].Stats.Mean())/float64(m))
	}

	fmt.Fprintln(w, "\n== Extension: coverage-guided vs blind random fuzzing ==")
	gRuns := minI(runs, 6)
	gvr := experiments.GuidedVsRandom(seed, gRuns, 2*time.Hour)
	fmt.Fprintf(w, "  (%d runs per arm, seeds %d..%d)\n", gRuns, seed, seed+int64(gRuns)-1)
	for _, row := range []experiments.Table5Row{gvr.Random, gvr.Guided} {
		fmt.Fprintf(w, "  %-36s times(s): %s\n", row.Message, row.Stats.Seconds())
		fmt.Fprintf(w, "  %-36s median %v  mean %v  timeouts %d\n", "", row.Stats.Median().Round(100*time.Millisecond),
			row.Stats.Mean().Round(100*time.Millisecond), row.TimedOut)
	}
	fmt.Fprintf(w, "  median speedup %.1fx, merged corpus %d frames\n", gvr.MedianSpeedup, len(gvr.MergedCorpus))

	fmt.Fprintln(w, "\n== Ablation: targeted vs blind fuzzing ==")
	tb := experiments.AblationTargetedVsBlind(seed, minI(runs, 3), 12*time.Hour)
	fmt.Fprintf(w, "  blind mean %v, targeted mean %v, speedup %.0fx\n",
		tb.Blind.Mean().Round(time.Second), tb.Targeted.Mean().Round(time.Millisecond), tb.SpeedupMean)

	fmt.Fprintln(w, "\n== Ablation: frame pacing ==")
	for _, p := range experiments.AblationPacing(seed, []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond}, 24*time.Hour) {
		fmt.Fprintf(w, "  interval %-4v unlock after %-9v (%d frames)  bus load %.1f%%\n",
			p.Interval, p.TimeToUnlock.Round(time.Second), p.FramesSent, p.BusLoad*100)
	}

	fmt.Fprintln(w, "\n== Ablation: frequency-anomaly IDS ==")
	idsRes := experiments.AblationIDS(seed)
	fmt.Fprintf(w, "  quiet minute: %d false positives over %d learned ids\n",
		idsRes.FalsePositives, idsRes.KnownIDs)
	fmt.Fprintf(w, "  blind fuzz detected after %v (%d fuzz frames)\n",
		idsRes.DetectionLatency.Round(time.Millisecond), idsRes.FramesBeforeDetection)

	fmt.Fprintln(w, "\n== Ablation: CAN FD bulk transfer ==")
	fd := experiments.AblationCANFD(4096)
	fmt.Fprintf(w, "  4096 bytes: classic %v, FD(BRS 2M) %v, speedup %.1fx\n",
		fd.ClassicTime.Round(time.Microsecond), fd.FDTime.Round(time.Microsecond), fd.Speedup)

	fmt.Fprintln(w, "\n== Ablation: data-link-layer (bit-level) fuzzing ==")
	dl := experiments.AblationDataLinkFuzz(seed, 10*time.Second)
	fmt.Fprintf(w, "  %d injected, %d error frames, %d still valid; victim degraded=%v (REC %d)\n",
		dl.Injected, dl.ErrorFrames, dl.StillValid, dl.VictimErrorPassive, dl.VictimREC)

	fmt.Fprintln(w, "\n== Ablation: command authentication ==")
	auth := experiments.AblationAuthentication(seed, 30*time.Minute)
	fmt.Fprintf(w, "  plain BCM: fuzzer unlocked=%v after %v\n",
		auth.PlainUnlocked, auth.PlainTime.Round(time.Second))
	fmt.Fprintf(w, "  MAC BCM:   fuzzer unlocked=%v after %d frames; paired app still works=%v\n",
		auth.AuthUnlocked, auth.AuthFramesTried, auth.LegitWorks)

	fmt.Fprintln(w, "\n== Ablation: gateway protection ==")
	gw := experiments.AblationGateway(seed, time.Hour)
	fmt.Fprintf(w, "  forward-all gateway: unlocked=%v after %v\n",
		gw.ForwardAllUnlocked, gw.ForwardAllTime.Round(time.Second))
	fmt.Fprintf(w, "  allow-list gateway:  unlocked=%v (%d frames blocked)\n",
		gw.AllowListUnlocked, gw.AllowListBlocked)

	fmt.Fprintln(w, "\n== Chaos: cluster brick under injected faults ==")
	for _, recovery := range []bool{true, false} {
		c := experiments.ChaosClusterBrick(seed, time.Hour, recovery)
		label := "with recovery:   "
		if !recovery {
			label = "without recovery:"
		}
		if !c.Found {
			fmt.Fprintf(w, "  %s no finding within %v\n", label, time.Hour)
			continue
		}
		fmt.Fprintf(w, "  %s %s after %v (%d frames); fuzzer bus-offs %d, recoveries %d, ends %v\n",
			label, c.Finding.Verdict.Oracle, c.Elapsed.Round(time.Millisecond), c.Finding.FramesSent,
			c.BusOffs, c.Recoveries, c.FuzzerState)
		fmt.Fprintf(w, "  %-17s faults injected: %v\n", "", c.Report.FaultsInjected)
	}

	return nil
}

func printMeans(w io.Writer, r experiments.ByteMeansResult) {
	fmt.Fprintf(w, "  frames: %d\n", r.Frames)
	for i, m := range r.Means {
		fmt.Fprintf(w, "    byte %d: %6.1f  %s\n", i+1, m, bar(m/255*100))
	}
	fmt.Fprintf(w, "  overall mean %.1f, spread %.1f, entropy %.2f bits, chi-square %.0f (uniform@p99: %v)\n",
		r.Overall, r.Spread, r.Entropy, r.ChiSquare, r.Uniform)
}

func printSeries(w io.Writer, r experiments.SignalsResult) {
	fmt.Fprintf(w, "  %-18s %10s %10s %10s %10s %10s\n", "signal", "min", "max", "mean", "stddev", "maxstep")
	for _, s := range r.Series {
		fmt.Fprintf(w, "  %-18s %10.1f %10.1f %10.1f %10.1f %10.1f\n",
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

// seconds rounds d to whole seconds, as RunStats.Seconds does for the
// times list the summary sits under.
func seconds(d time.Duration) int { return int(d.Round(time.Second) / time.Second) }

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
