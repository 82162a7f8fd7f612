// Command benchperf is the performance-regression harness for the hot
// path. It runs the repository's headline macro-workloads (campaign,
// campaign+telemetry, fleet) and the hot-path micro-workloads (bit
// stuffing, wire-length computation, frame encoding, scheduler cycle,
// steady-state bus TX, guided campaign step) through testing.Benchmark,
// then writes a BENCH_<date>.json trajectory file with ns/op, allocs/op,
// B/op and — for the frame-pumping workloads — frames/sec, plus two
// same-run ratios: the telemetry overhead (CampaignTelemetry over Campaign
// ns/op) and the guided/blind tick ratio (GuidedStep ns/op over Campaign
// ns per frame).
//
// Usage:
//
//	benchperf [-quick] [-out BENCH_2006-01-02.json]
//	benchperf -quick -baseline testdata/bench_baseline.json
//	benchperf -only Campaign,Fleet -speedup-baseline BENCH_2026-08-05.json
//
// With -baseline the run compares against a committed baseline and exits
// non-zero when any shared workload regresses by more than the 15%
// tolerance band in ns/op or increases at all in allocs/op. CI runs the
// -quick set on every push.
//
// With -speedup-baseline the run instead proves a floor against a
// *historical* trajectory file: Campaign frames/sec must be at least 3x
// the old number and Fleet allocs/op must be reduced by at least 5x.
// This pins the world-reuse + word-codec optimization gains so a revert
// cannot slip through even if it passes the drift gate. The speedup
// comparison must run at the same workload shape as its baseline — the
// committed BENCH_2026-08-05.json is a full (non -quick) run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/findings"
	"repro/internal/fleet"
	"repro/internal/guided"
	"repro/internal/target"
	"repro/internal/telemetry"
	"repro/internal/testbench"
)

// logger is the shared structured stderr logger of the tool.
var logger = telemetry.NewCLILogger(os.Stderr, "benchperf", slog.LevelInfo)

// Result is one workload's measurement in the trajectory file.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"nsPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	// FramesPerSec is the real-time frame throughput for workloads that
	// pump frames (campaign, fleet, bus TX); zero elsewhere.
	FramesPerSec float64 `json:"framesPerSec,omitempty"`
}

// File is the shape of a BENCH_<date>.json emission.
type File struct {
	Date       string `json:"date"`
	GoVersion  string `json:"goVersion"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Quick      bool   `json:"quick"`
	// FindingsCount is the size of the regression corpus (-findings-db) at
	// snapshot time — deduplicated findings, not raw campaign hits — so the
	// trend report shows discovery progress alongside performance.
	FindingsCount int `json:"findingsCount,omitempty"`
	// TelemetryOverhead is the cost of the live telemetry plane as a
	// same-run ratio: the best CampaignTelemetry ns/op over the best
	// Campaign ns/op. Zero when the run skipped either workload.
	TelemetryOverhead float64 `json:"telemetryOverhead,omitempty"`
	// GuidedTickRatio is the guided engine's per-frame cost against the
	// blind generator's, same run: GuidedStep ns/op (one frame) over
	// Campaign ns per frame. Zero when the run skipped either workload.
	GuidedTickRatio float64  `json:"guidedTickRatio,omitempty"`
	Results         []Result `json:"results"`
}

// The gates' thresholds: the allowed fractional ns/op regression vs
// -baseline, and the Campaign frames/sec multiple and Fleet allocs/op
// reduction factor required vs -speedup-baseline.
const (
	tolerance              = 0.15
	minCampaignSpeedup     = 3.0
	minFleetAllocReduction = 5.0
)

// workload pairs a benchmark body with the number of frames one op pumps
// (0 when frames/sec is not a meaningful metric for it).
type workload struct {
	name        string
	framesPerOp float64
	bench       func(b *testing.B)
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		logger.Error("run failed", "err", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchperf", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "trim the fleet workload for CI")
	out := fs.String("out", "", "output path (default BENCH_<date>.json; empty with -baseline writes nothing)")
	baseline := fs.String("baseline", "", "baseline BENCH json to compare against")
	speedupBaseline := fs.String("speedup-baseline", "", "historical BENCH json the speedup gate measures against")
	reps := fs.Int("reps", 3, "runs per workload; the fastest is kept (noise floor)")
	only := fs.String("only", "", "comma-separated workload names to run (default all)")
	findingsDB := fs.String("findings-db", "", "findings database directory; its record count is stamped into the snapshot")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *reps < 1 {
		*reps = 1
	}

	f := File{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      *quick,
	}
	if *findingsDB != "" {
		db, err := findings.Open(*findingsDB)
		if err != nil {
			return err
		}
		recs, err := db.Load()
		if err != nil {
			return err
		}
		f.FindingsCount = len(recs)
		logger.Info("findings corpus", "db", *findingsDB, "records", f.FindingsCount)
	}
	var want map[string]bool
	if *only != "" {
		want = make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
	}
	for _, w := range workloads(*quick) {
		if want != nil && !want[w.name] {
			continue
		}
		logger.Info("running", "workload", w.name)
		res := testing.Benchmark(w.bench)
		// Keep the fastest of -reps runs: the minimum is the scheduling-noise
		// floor, which is what a regression gate should compare.
		for rep := 1; rep < *reps; rep++ {
			if alt := testing.Benchmark(w.bench); nsPerOp(alt) < nsPerOp(res) {
				res = alt
			}
		}
		r := Result{
			Name:        w.name,
			NsPerOp:     nsPerOp(res),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
		if w.framesPerOp > 0 && r.NsPerOp > 0 {
			r.FramesPerSec = w.framesPerOp * 1e9 / r.NsPerOp
		}
		logger.Info("result", "workload", w.name,
			"ns/op", fmt.Sprintf("%.0f", r.NsPerOp),
			"allocs/op", r.AllocsPerOp, "B/op", r.BytesPerOp)
		f.Results = append(f.Results, r)
	}
	if f.TelemetryOverhead = telemetryOverhead(f.Results); f.TelemetryOverhead > 0 {
		logger.Info("telemetry overhead", "CampaignTelemetry/Campaign", fmt.Sprintf("%.3fx", f.TelemetryOverhead))
	}
	if f.GuidedTickRatio = guidedTickRatio(f.Results); f.GuidedTickRatio > 0 {
		logger.Info("guided tick ratio", "GuidedStep/Campaign per frame", fmt.Sprintf("%.3fx", f.GuidedTickRatio))
	}

	path := *out
	if path == "" && *baseline == "" && *speedupBaseline == "" {
		path = "BENCH_" + f.Date + ".json"
	}
	if path != "" {
		buf, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		logger.Info("wrote trajectory", "path", path)
	}

	if *baseline != "" {
		if err := compare(f, *baseline); err != nil {
			return err
		}
	}
	if *speedupBaseline != "" {
		return checkSpeedup(f, *speedupBaseline)
	}
	return nil
}

// checkSpeedup enforces the world-reuse + word-codec acceptance floor
// against a historical trajectory file: Campaign frames/sec must be at
// least minCampaignSpeedup times the old number, and Fleet allocs/op must
// have shrunk by at least minFleetAllocReduction times. Unlike compare,
// which guards against backsliding from the current baseline, this gate
// proves the optimization work actually landed — reverting it fails CI
// even if the revert is self-consistent.
func checkSpeedup(f File, baselinePath string) error {
	buf, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("read speedup baseline: %w", err)
	}
	var base File
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("parse speedup baseline: %w", err)
	}
	find := func(f File, name string) (Result, error) {
		for _, r := range f.Results {
			if r.Name == name {
				return r, nil
			}
		}
		return Result{}, fmt.Errorf("workload %q missing from speedup comparison", name)
	}

	failures := 0
	oldC, err := find(base, "Campaign")
	if err != nil {
		return err
	}
	newC, err := find(f, "Campaign")
	if err != nil {
		return err
	}
	if oldC.FramesPerSec <= 0 || newC.FramesPerSec <= 0 {
		return fmt.Errorf("campaign frames/sec missing (old %.0f, new %.0f)", oldC.FramesPerSec, newC.FramesPerSec)
	}
	speedup := newC.FramesPerSec / oldC.FramesPerSec
	if speedup < minCampaignSpeedup {
		failures++
		logger.Error("campaign speedup below floor",
			"old frames/sec", fmt.Sprintf("%.0f", oldC.FramesPerSec),
			"now frames/sec", fmt.Sprintf("%.0f", newC.FramesPerSec),
			"speedup", fmt.Sprintf("%.2fx", speedup), "floor", fmt.Sprintf("%.1fx", minCampaignSpeedup))
	} else {
		logger.Info("campaign speedup holds",
			"speedup", fmt.Sprintf("%.2fx", speedup), "floor", fmt.Sprintf("%.1fx", minCampaignSpeedup))
	}

	oldF, err := find(base, "Fleet")
	if err != nil {
		return err
	}
	newF, err := find(f, "Fleet")
	if err != nil {
		return err
	}
	if oldF.AllocsPerOp <= 0 {
		return fmt.Errorf("fleet allocs/op missing from speedup baseline")
	}
	reduction := float64(oldF.AllocsPerOp) / float64(max(newF.AllocsPerOp, 1))
	if reduction < minFleetAllocReduction {
		failures++
		logger.Error("fleet alloc reduction below floor",
			"old allocs/op", oldF.AllocsPerOp, "now allocs/op", newF.AllocsPerOp,
			"reduction", fmt.Sprintf("%.2fx", reduction), "floor", fmt.Sprintf("%.1fx", minFleetAllocReduction))
	} else {
		logger.Info("fleet alloc reduction holds",
			"reduction", fmt.Sprintf("%.2fx", reduction), "floor", fmt.Sprintf("%.1fx", minFleetAllocReduction))
	}

	if failures > 0 {
		return fmt.Errorf("%d speedup floor(s) not met vs %s", failures, baselinePath)
	}
	return nil
}

// telemetryOverhead returns CampaignTelemetry ns/op over Campaign ns/op,
// or zero when either is missing.
func telemetryOverhead(results []Result) float64 {
	return ratio(results, "CampaignTelemetry", "Campaign", func(r Result) float64 { return r.NsPerOp })
}

// guidedTickRatio returns GuidedStep ns per frame over Campaign ns per
// frame — Campaign frames/sec over GuidedStep frames/sec — or zero when
// either is missing.
func guidedTickRatio(results []Result) float64 {
	return ratio(results, "Campaign", "GuidedStep", func(r Result) float64 { return r.FramesPerSec })
}

// ratio returns metric(num)/metric(den) over the named results, or zero
// when either is missing or not positive.
func ratio(results []Result, num, den string, metric func(Result) float64) float64 {
	var n, d float64
	for _, r := range results {
		switch r.Name {
		case num:
			n = metric(r)
		case den:
			d = metric(r)
		}
	}
	if n <= 0 || d <= 0 {
		return 0
	}
	return n / d
}

// nsPerOp returns the benchmark's wall time per operation in nanoseconds.
func nsPerOp(res testing.BenchmarkResult) float64 {
	if res.N <= 0 {
		return 0
	}
	return float64(res.T.Nanoseconds()) / float64(res.N)
}

// compare checks every workload shared with the baseline: ns/op may drift
// up to the tolerance band, allocs/op at most 2% (zero for zero-alloc
// workloads). A baseline row that names no workload of this tool is an
// error, so deleting a workload cannot silently drop it from the gate.
func compare(f File, baselinePath string) error {
	buf, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	var base File
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("parse baseline: %w", err)
	}
	known := make(map[string]bool)
	for _, w := range workloads(false) {
		known[w.name] = true
	}
	byName := make(map[string]Result, len(base.Results))
	var stale []string
	for _, r := range base.Results {
		byName[r.Name] = r
		if !known[r.Name] {
			stale = append(stale, r.Name)
		}
	}
	if len(stale) > 0 {
		return fmt.Errorf("baseline %s has rows for workloads benchperf does not run: %s",
			baselinePath, strings.Join(stale, ", "))
	}

	regressions := 0
	for _, r := range f.Results {
		b, ok := byName[r.Name]
		if !ok {
			logger.Info("no baseline entry; skipping", "workload", r.Name)
			continue
		}
		ratio := 0.0
		if b.NsPerOp > 0 {
			ratio = r.NsPerOp/b.NsPerOp - 1
		}
		// 2% slack absorbs goroutine-scheduling jitter in the parallel fleet
		// workload; it is exactly zero for the zero-alloc hot paths, and a
		// real per-frame leak shifts allocs/op by orders of magnitude more.
		allocSlack := b.AllocsPerOp / 50
		switch {
		case r.AllocsPerOp > b.AllocsPerOp+allocSlack:
			regressions++
			logger.Error("allocs/op regression", "workload", r.Name,
				"baseline", b.AllocsPerOp, "now", r.AllocsPerOp)
		case ratio > tolerance:
			regressions++
			logger.Error("ns/op regression", "workload", r.Name,
				"baseline", fmt.Sprintf("%.0f", b.NsPerOp),
				"now", fmt.Sprintf("%.0f", r.NsPerOp),
				"drift", fmt.Sprintf("%+.1f%%", ratio*100))
		default:
			logger.Info("within band", "workload", r.Name,
				"drift", fmt.Sprintf("%+.1f%%", ratio*100),
				"allocs/op", r.AllocsPerOp)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d workload(s) regressed beyond the %.0f%% band", regressions, tolerance*100)
	}
	logger.Info("all workloads within the regression band", "tolerance", tolerance)
	return nil
}

// workloads returns the benchmark set. quick trims the fleet trial count
// so the CI gate finishes fast; the micro set is cheap either way.
func workloads(quick bool) []workload {
	fleetTrials := 12
	if quick {
		fleetTrials = 4
	}
	return []workload{
		{name: "Campaign", framesPerOp: 1000, bench: func(b *testing.B) {
			benchCampaign(b, nil)
		}},
		{name: "CampaignTelemetry", framesPerOp: 1000, bench: func(b *testing.B) {
			benchCampaign(b, telemetry.New(0))
		}},
		{name: "Fleet", bench: benchFleet(fleetTrials)},
		{name: "GuidedStep", framesPerOp: 1, bench: benchGuidedStep},
		{name: "BusTx", framesPerOp: 1, bench: benchBusTx},
		{name: "ClockScheduleFire", bench: benchClock},
		{name: "Stuff", bench: benchStuff},
		{name: "WireBits", bench: benchWireBits},
		{name: "AppendEncodeBits", bench: benchAppendEncodeBits},
		{name: "Unstuff", bench: benchUnstuff},
		{name: "CRC15", bench: benchCRC15},
		{name: "WorldReset", bench: func(b *testing.B) {
			benchWorldReset(b, func(int) int64 { return 5 })
		}},
		{name: "WorldResetFreshSeed", bench: func(b *testing.B) {
			benchWorldReset(b, func(i int) int64 { return int64(i) + 6 })
		}},
	}
}

// benchCampaign mirrors the root BenchmarkCampaign(-Telemetry) workload:
// one virtual second of blind bench fuzzing at a 1 ms interval, ~1000
// frames per op, on a world built once and recycled with the reset
// machinery — the fleet's pooled fast path.
func benchCampaign(b *testing.B, tel *telemetry.Telemetry) {
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
		b.Fatal(err)
	}
	campaign.AddOracle(bench.UnlockOracle())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.Reset()
		campaign.Reset(7)
		campaign.Start()
		sched.RunUntil(time.Second)
		campaign.Stop()
	}
}

// benchFleet mirrors the root BenchmarkFleet workload at NumCPU workers,
// with a world pool carrying reset-capable worlds across ops so trials
// recycle instead of rebuilding.
func benchFleet(trials int) func(b *testing.B) {
	return func(b *testing.B) {
		pool := &fleet.WorldPool{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, err := fleet.Run(fleet.Config{
				Trials:      trials,
				Workers:     runtime.NumCPU(),
				BaseSeed:    100,
				MaxPerTrial: 12 * time.Hour,
				Pool:        pool,
			}, func(spec fleet.TrialSpec) (*fleet.World, error) {
				w, err := target.Build(target.Spec{Target: "bench", Stop: true},
					core.Config{Seed: spec.Seed}, target.Options{})
				if err != nil {
					return nil, err
				}
				return w.World, nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchGuidedStep measures one warm 1 ms tick of a guided campaign —
// harvest, novelty bucketing, mutation, TX and the world's reactions.
func benchGuidedStep(b *testing.B) {
	sched := clock.New()
	bench := testbench.New(sched, testbench.Config{AckUnlock: true})
	port := bench.AttachFuzzer("fuzzer")
	cfg := core.Config{Seed: 11, Mode: core.ModeGuided, Interval: time.Millisecond}
	engine, err := guided.NewEngine(cfg, guided.WithProbes(bench.GuidedProbes(port)...))
	if err != nil {
		b.Fatal(err)
	}
	campaign, err := core.NewCampaign(sched, port, cfg, core.WithFrameSource(engine))
	if err != nil {
		b.Fatal(err)
	}
	campaign.Start()
	defer campaign.Stop()
	sched.RunFor(time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.RunFor(time.Millisecond)
	}
}

// benchBusTx measures the warm steady-state transmit path: enqueue,
// arbitrate, wire-time encode, pooled completion, delivery.
func benchBusTx(b *testing.B) {
	sched := clock.New()
	bs := bus.New(sched)
	tx := bs.Connect("fuzzer")
	rx := bs.Connect("ecu")
	rx.SetReceiver(func(bus.Message) {})
	f := can.MustNew(0x215, []byte{0x20, 0x5F, 1, 0, 0, 1, 0x20})
	step := bs.FrameTime(f)
	for i := 0; i < 32; i++ {
		if err := tx.Send(f); err != nil {
			b.Fatal(err)
		}
		sched.RunFor(step)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tx.Send(f); err != nil {
			b.Fatal(err)
		}
		sched.RunFor(step)
	}
}

// benchClock measures the warm schedule+fire cycle of the event scheduler.
func benchClock(b *testing.B) {
	s := clock.New()
	fn := func() {}
	for i := 0; i < 16; i++ {
		s.AfterEvent(time.Millisecond, fn)
	}
	for s.Step() {
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AfterEvent(time.Millisecond, fn)
		s.Step()
	}
}

// benchStuff measures bit stuffing of one typical frame's raw bits.
func benchStuff(b *testing.B) {
	bits := can.RawBits(can.MustNew(0x215, []byte{0x20, 0x5F, 1, 0, 0, 1, 0x20}))
	dst := make([]byte, 0, len(bits)+len(bits)/5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = can.AppendStuff(dst[:0], bits)
	}
}

// benchWireBits measures the zero-alloc stuffed wire-length computation.
func benchWireBits(b *testing.B) {
	f := can.MustNew(0x215, []byte{0x20, 0x5F, 1, 0, 0, 1, 0x20})
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = can.WireBits(f)
	}
	_ = n
}

// benchAppendEncodeBits measures the scratch-buffer frame encoder.
func benchAppendEncodeBits(b *testing.B) {
	f := can.MustNew(0x215, []byte{0x20, 0x5F, 1, 0, 0, 1, 0x20})
	dst := make([]byte, 0, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = can.AppendEncodeBits(dst[:0], f)
	}
}

// benchUnstuff measures the bit-serial destuffing kernel on one typical
// frame's stuffed wire bits.
func benchUnstuff(b *testing.B) {
	stuffed := can.Stuff(can.RawBits(can.MustNew(0x215, []byte{0x20, 0x5F, 1, 0, 0, 1, 0x20})))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := can.Unstuff(stuffed); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCRC15 measures the byte-table CRC-15 over one typical frame's raw
// bits.
func benchCRC15(b *testing.B) {
	bits := can.RawBits(can.MustNew(0x215, []byte{0x20, 0x5F, 1, 0, 0, 1, 0x20}))
	b.ReportAllocs()
	b.ResetTimer()
	var crc uint16
	for i := 0; i < b.N; i++ {
		crc = can.CRC15(bits)
	}
	_ = crc
}

// benchWorldReset measures recycling a dirtied unlock world back to a
// pristine seeded state — the cost the fleet pays per trial instead of a
// factory build. Op i resets to seed(i): WorldReset reuses the seed the
// world ran with, the best case, while WorldResetFreshSeed gives every op
// a new seed, as every fleet and service trial does.
func benchWorldReset(b *testing.B, seed func(i int) int64) {
	w, err := target.Build(target.Spec{Target: "bench", Stop: true}, core.Config{
		Seed:      5,
		TargetIDs: []can.ID{0x215},
		Interval:  time.Millisecond,
	}, target.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, ok := w.World.Campaign.RunUntilFinding(30 * time.Minute); !ok {
		b.Fatal("campaign found no unlock within 30 virtual minutes")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.World.Reset(fleet.TrialSpec{Seed: seed(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
