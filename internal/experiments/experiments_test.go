package experiments

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bcm"
	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/clock"
)

func TestFigure1ShapeFuzzingNearBottom(t *testing.T) {
	rows := Figure1()
	if len(rows) < 8 {
		t.Fatalf("only %d rows", len(rows))
	}
	var fuzz, functional float64
	for _, r := range rows {
		switch r.Method {
		case "Fuzz testing":
			fuzz = r.Share
		case "Functional testing":
			functional = r.Share
		}
	}
	if fuzz == 0 || functional == 0 {
		t.Fatal("expected methods missing")
	}
	if fuzz*5 > functional {
		t.Fatalf("fuzzing share %v not ≪ functional %v (paper's point)", fuzz, functional)
	}
}

func TestTable1MatchesPaperCatalogue(t *testing.T) {
	rows := Table1()
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	if rows[0].Tool != "beStorm" || rows[4].Tool != "Custom software" {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestTable2CapturesDistinctIDs(t *testing.T) {
	rows := Table2(1, 5*time.Second, 5)
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	seen := map[can.ID]bool{}
	for _, r := range rows {
		if seen[r.Frame.ID] {
			t.Fatalf("duplicate id %v in sample", r.Frame.ID)
		}
		seen[r.Frame.ID] = true
		if err := r.Frame.Validate(); err != nil {
			t.Fatalf("invalid captured frame: %v", err)
		}
		if r.Time < 5*time.Second {
			t.Fatalf("record before warmup: %v", r.Time)
		}
	}
}

func TestTable3RowsAndCombinatorics(t *testing.T) {
	rows := Table3()
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	calcs := Table3Combinatorics()
	// §V: one byte = 2^19; at 1 ms over eight minutes.
	if calcs[1].Combinations != 1<<19 {
		t.Fatalf("1-byte combinations = %d", calcs[1].Combinations)
	}
	if calcs[1].AtOneMs < 8*time.Minute || calcs[1].AtOneMs > 9*time.Minute {
		t.Fatalf("1-byte exhaust = %v", calcs[1].AtOneMs)
	}
	// Two bytes ≈ 1.5 days.
	if calcs[2].AtOneMs < 36*time.Hour || calcs[2].AtOneMs > 38*time.Hour {
		t.Fatalf("2-byte exhaust = %v", calcs[2].AtOneMs)
	}
}

func TestTable4SampleOutput(t *testing.T) {
	rows := Table4(2, 6)
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	lens := map[uint8]bool{}
	for _, r := range rows {
		if err := r.Frame.Validate(); err != nil {
			t.Fatalf("invalid frame: %v", err)
		}
		lens[r.Frame.Len] = true
	}
	// Like the paper's sample, the output shows varied lengths.
	if len(lens) < 2 {
		t.Fatal("fuzzer sample shows no length variation")
	}
	// 1 ms pacing. Captures are stamped at end of frame and the fuzzer is
	// alone on the bus, so consecutive stamps differ by exactly the 1 ms
	// period plus the difference of the two frames' wire times.
	b := bus.New(clock.New())
	for i := 1; i < len(rows); i++ {
		gap := rows[i].Time - rows[i-1].Time
		want := time.Millisecond + b.FrameTime(rows[i].Frame) - b.FrameTime(rows[i-1].Frame)
		if gap != want {
			t.Fatalf("inter-frame gap %d = %v, want %v", i, gap, want)
		}
	}
}

func TestTable4Deterministic(t *testing.T) {
	a, b := Table4(7, 6), Table4(7, 6)
	for i := range a {
		if a[i].Frame != b[i].Frame {
			t.Fatal("Table4 not deterministic")
		}
	}
}

func TestFigure4NonLinearDistribution(t *testing.T) {
	res := Figure4(1, 100000)
	if res.Frames != 100000 {
		t.Fatalf("frames = %d", res.Frames)
	}
	// The vehicle's structured traffic must show a clearly non-flat
	// per-position profile (the paper's Fig 4 spans tens of counts).
	if res.Spread < 30 {
		t.Fatalf("spread = %v, want non-linear (>30)", res.Spread)
	}
}

func TestFigure5FlatDistributionMean127(t *testing.T) {
	res := Figure5(1, 66144)
	if res.Frames != 66144 {
		t.Fatalf("frames = %d", res.Frames)
	}
	if res.Overall < 125 || res.Overall > 130 {
		t.Fatalf("overall mean = %v, want ~127 (paper)", res.Overall)
	}
	if res.Spread > 5 {
		t.Fatalf("spread = %v, want flat", res.Spread)
	}
}

func TestFigure4VsFigure5Contrast(t *testing.T) {
	veh := Figure4(3, 20000)
	fuzz := Figure5(3, 20000)
	if veh.Spread < fuzz.Spread*4 {
		t.Fatalf("vehicle spread %v not ≫ fuzzer spread %v", veh.Spread, fuzz.Spread)
	}
}

func TestFigure6NormalSignalsSteady(t *testing.T) {
	res := Figure6(1, 10*time.Second)
	rpm := res.Get("DisplayedRPM")
	if rpm == nil || len(rpm.Samples) == 0 {
		t.Fatal("no RPM series")
	}
	if rpm.Mean() < 700 || rpm.Mean() > 1000 {
		t.Fatalf("idle RPM mean = %v", rpm.Mean())
	}
	if rpm.StdDev() > 60 {
		t.Fatalf("idle RPM stddev = %v, want steady", rpm.StdDev())
	}
	speed := res.Get("DisplayedSpeed")
	if speed.Max() != 0 {
		t.Fatalf("speed max = %v at standstill", speed.Max())
	}
}

func TestFigure7FuzzedSignalsErratic(t *testing.T) {
	normal := Figure6(1, 4*time.Second)
	fuzzed := Figure7(1, 5*time.Second)
	nr := normal.Get("DisplayedRPM")
	fr := fuzzed.Get("DisplayedRPM")
	if fr.StdDev() < nr.StdDev()*5 {
		t.Fatalf("fuzzed stddev %v not ≫ normal %v", fr.StdDev(), nr.StdDev())
	}
	if fr.MaxStep() < 500 {
		t.Fatalf("fuzzed max step = %v, want rapid variation", fr.MaxStep())
	}
}

func TestFigure8NegativeRPM(t *testing.T) {
	res, ok := Figure8(1, 10*time.Minute)
	if !ok {
		t.Fatal("no negative RPM within deadline")
	}
	if res.NegativeRPM >= 0 {
		t.Fatalf("NegativeRPM = %v", res.NegativeRPM)
	}
	if res.FramesSent == 0 {
		t.Fatal("frames not counted")
	}
}

func TestFigure9CrashPersistsAcrossPowerCycle(t *testing.T) {
	res, ok := Figure9(1, time.Hour)
	if !ok {
		t.Fatal("cluster never crashed within deadline")
	}
	if res.MILsDuringFuzz == 0 {
		t.Fatal("no MILs during fuzzing (paper: immediate MIL illumination)")
	}
	if res.ChimesDuringFuzz == 0 {
		t.Fatal("no warning sounds during fuzzing")
	}
	if res.MILsAfterPowerCycle != 0 {
		t.Fatal("MILs survived power cycle (paper: they clear)")
	}
	if !res.CrashAfterPowerCycle {
		t.Fatal("crash cleared by power cycle (paper: it persists)")
	}
	if res.CrashAfterServiceFix {
		t.Fatal("service fix did not clear the crash flag")
	}
}

func TestTable5ShapeLengthCheckSlower(t *testing.T) {
	// 3 runs per variant keeps the test quick; the bench runs the full 12.
	rows := Table5(100, 3, 6*time.Hour)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	loose, strict := rows[0], rows[1]
	if loose.Check != bcm.CheckByteOnly || strict.Check != bcm.CheckByteAndLength {
		t.Fatalf("variant order wrong")
	}
	if loose.TimedOut > 0 || strict.TimedOut > 0 {
		t.Fatalf("timeouts: %d/%d", loose.TimedOut, strict.TimedOut)
	}
	if strict.Stats.Mean() <= loose.Stats.Mean() {
		t.Fatalf("strict mean %v not > loose mean %v (Table V shape)",
			strict.Stats.Mean(), loose.Stats.Mean())
	}
	// The exact times (ns) at seeds 100..102: recycled worlds must give
	// the published cold-build values.
	pinTimes(t, "byte-only", loose.Stats.Times, []time.Duration{69225362000, 1103740342000, 3759328000})
	pinTimes(t, "+length", strict.Stats.Times, []time.Duration{5859323342000, 1103740342000, 4445624348000})
}

// pinTimes fails unless a row's run times equal want exactly, in order.
func pinTimes(t *testing.T, row string, got, want []time.Duration) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Errorf("%s times = %v, want %v", row, got, want)
	}
}

func TestAblationTargetedVsBlind(t *testing.T) {
	res := AblationTargetedVsBlind(200, 2, 6*time.Hour)
	if len(res.Blind.Times) != 2 || len(res.Targeted.Times) != 2 {
		t.Fatalf("missing runs: %d blind, %d targeted", len(res.Blind.Times), len(res.Targeted.Times))
	}
	if res.SpeedupMean < 10 {
		t.Fatalf("speedup = %v, want ≫ 1 from 2048x smaller space", res.SpeedupMean)
	}
}

func TestAblationGateway(t *testing.T) {
	res := AblationGateway(5, 30*time.Minute)
	if !res.ForwardAllUnlocked {
		t.Fatal("legacy gateway did not let the attack through")
	}
	if res.AllowListUnlocked {
		t.Fatal("allow-list gateway failed to stop the attack")
	}
	if res.AllowListBlocked == 0 {
		t.Fatal("allow-list gateway blocked nothing")
	}
}

func TestAblationPacing(t *testing.T) {
	intervals := []time.Duration{time.Millisecond, 2 * time.Millisecond}
	res := AblationPacing(3, intervals, 12*time.Hour)
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	if res[0].TimeToUnlock == 0 || res[1].TimeToUnlock == 0 {
		t.Fatal("runs timed out")
	}
	// Same seed => same frame sequence => same frame count to unlock; the
	// slower pacing takes proportionally longer wall-clock.
	if res[0].FramesSent != res[1].FramesSent {
		t.Fatalf("frame counts differ: %d vs %d", res[0].FramesSent, res[1].FramesSent)
	}
	ratio := float64(res[1].TimeToUnlock) / float64(res[0].TimeToUnlock)
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("time ratio = %v, want ~2", ratio)
	}
	if res[0].BusLoad <= res[1].BusLoad {
		t.Fatalf("bus load should fall with slower pacing: %v vs %v", res[0].BusLoad, res[1].BusLoad)
	}
}

func TestAblationOracleStrictnessOrdering(t *testing.T) {
	rows := AblationOracleStrictness(300, 2, time.Hour)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TimedOut > 0 {
			t.Fatalf("variant %q timed out %d times", r.Message, r.TimedOut)
		}
	}
	a, b, c := rows[0].Stats.Mean(), rows[1].Stats.Mean(), rows[2].Stats.Mean()
	if !(a < b && b < c) {
		t.Fatalf("means not strictly increasing with strictness: %v, %v, %v", a, b, c)
	}
	// The paper: the two-byte check's increase is "even greater" than the
	// length check's.
	if float64(c)/float64(b) < 5 {
		t.Fatalf("two-byte variant %v not ≫ length variant %v", c, b)
	}
}

func TestAblationAuthentication(t *testing.T) {
	res := AblationAuthentication(9, 30*time.Minute)
	if !res.PlainUnlocked {
		t.Fatal("fuzzer failed to open the unhardened BCM")
	}
	if res.AuthUnlocked {
		t.Fatal("fuzzer opened the MAC-hardened BCM within a 30-minute budget")
	}
	if res.AuthFramesTried < 1_000_000 {
		t.Fatalf("only %d frames tried against the hardened BCM", res.AuthFramesTried)
	}
	if !res.LegitWorks {
		t.Fatal("hardening broke the legitimate app unlock")
	}
}

func TestAblationCANFD(t *testing.T) {
	res := AblationCANFD(512)
	if res.ClassicTime <= res.FDTime {
		t.Fatalf("FD not faster: classic %v vs fd %v", res.ClassicTime, res.FDTime)
	}
	if res.Speedup < 2 {
		t.Fatalf("speedup = %v, want >= 2 for bulk payloads at 4x data rate", res.Speedup)
	}
}

func TestAblationDataLinkFuzz(t *testing.T) {
	res := AblationDataLinkFuzz(4, 2*time.Second)
	if res.Injected < 1000 {
		t.Fatalf("injected = %d", res.Injected)
	}
	if res.ErrorFrames < res.Injected*9/10 {
		t.Fatalf("error frames %d of %d injected; single-bit flips should almost always violate the protocol", res.ErrorFrames, res.Injected)
	}
	if !res.VictimErrorPassive {
		t.Fatalf("victim still error-active (REC %d)", res.VictimREC)
	}
}

func TestFigure5PassesUniformityCheck(t *testing.T) {
	res := Figure5(11, 66144)
	if !res.Uniform {
		t.Fatalf("fuzzer output failed chi-square uniformity: chi=%v", res.ChiSquare)
	}
	if res.Entropy < 7.99 {
		t.Fatalf("fuzzer output entropy = %v, want ~8 bits", res.Entropy)
	}
}

func TestFigure4FailsUniformityCheck(t *testing.T) {
	res := Figure4(11, 20000)
	if res.Uniform {
		t.Fatal("structured vehicle traffic passed the uniformity check")
	}
	if res.Entropy > 6 {
		t.Fatalf("vehicle traffic entropy = %v, implausibly high", res.Entropy)
	}
}

func TestAblationIDS(t *testing.T) {
	res := AblationIDS(6)
	if res.FalsePositives != 0 {
		t.Fatalf("IDS false positives on quiet traffic: %d", res.FalsePositives)
	}
	if res.KnownIDs < 8 {
		t.Fatalf("IDS learned only %d identifiers", res.KnownIDs)
	}
	if res.DetectionLatency == 0 {
		t.Fatal("IDS never detected the fuzzing")
	}
	if res.DetectionLatency > 100*time.Millisecond {
		t.Fatalf("detection latency = %v, want < 100ms", res.DetectionLatency)
	}
}

func TestGuidedVsRandomPinnedSeeds(t *testing.T) {
	// Pinned seeds 100..105: random (blind §V fuzzer) vs the guided engine
	// on the byte-only Table V parser. Guided median strictly below
	// random's is the claim; the exact times and corpus size are the
	// EXPERIMENTS.md / benchreport numbers.
	res := GuidedVsRandom(100, 6, 2*time.Hour)
	if res.Random.TimedOut > 0 || res.Guided.TimedOut > 0 {
		t.Fatalf("timeouts: random %d, guided %d", res.Random.TimedOut, res.Guided.TimedOut)
	}
	rm, gm := res.Random.Stats.Median(), res.Guided.Stats.Median()
	if gm >= rm {
		t.Fatalf("guided median %v not below random median %v", gm, rm)
	}
	if res.MedianSpeedup <= 1 {
		t.Fatalf("speedup = %v, want > 1", res.MedianSpeedup)
	}
	pinTimes(t, "random", res.Random.Stats.Times, []time.Duration{
		69225362000, 1103740342000, 3759328000, 264048328000, 357070360000, 184348328000})
	pinTimes(t, "guided", res.Guided.Stats.Times, []time.Duration{
		9413362000, 4103362000, 32654246000, 2418246000, 38898314000, 2922366000})
	if len(res.MergedCorpus) != 53 {
		t.Fatalf("merged corpus has %d frames, want 53", len(res.MergedCorpus))
	}
	// The corpus must be dominated by command-identifier parents — the
	// feedback loop's whole point.
	onCmd := 0
	for _, line := range res.MergedCorpus {
		if strings.HasPrefix(line, "215#") {
			onCmd++
		}
	}
	if onCmd == 0 {
		t.Fatalf("no corpus entries on the command identifier: %v", res.MergedCorpus)
	}
}
