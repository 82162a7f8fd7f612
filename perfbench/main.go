// Command perfbench is the repository's end-to-end benchmark. It drives
// the public APIs the canfuzz and canfuzzd tools are built from
// (target.Build, fleet.Run, campsrv, campaignd.Worker/Client) and prints
// every metric by name with its unit, then one JSON result line:
//
//	perfbench --workload blind-unlock|guided-unlock-live|service-short-trials
//	          [--seed N] [--seconds S] [--trace 0|1] [--base-seed N]
//
// Every run of a workload does identical simulated work: fixed batches of
// trials whose seeds fleet.Run derives from --base-seed, repeated for a
// number of rounds fixed by --seconds, never a time box. --seed only
// permutes the order in which each round runs its batches. --trace 0
// reports the end-to-end metrics; --trace 1 runs the same work once
// untraced and once with the benchmark's own span wrappers installed and
// reports the per-layer breakdown. BENCHMARK.json lists the workloads the
// regression gate runs; blind-unlock is run by hand (see README.md).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/bcm"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/target"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, because one set-up is too short to time steadily.
const setupRepeats = 5

// setupChunks is how many host-speed calibration chunks run after each
// set-up.
const setupChunks = 8

// warmBatchIndex offsets the warm-up batches' seed indices far past the
// timed batches', so warm-up never runs a timed trial.
const warmBatchIndex = 1 << 20

// rig is one set-up instance of a workload.
type rig interface {
	round(seeds []int64, perBatch int, order []int, between func()) (time.Duration, [][]byte, error)
	takeWalls() []float64
	// clearStats drops what the warm-up recorded.
	clearStats()
	close() error
}

// workload describes one benchmark workload.
type workload struct {
	name string
	// batches and warmBatches count the timed and warm-up batches, of
	// perBatch and warmPerBatch trials.
	batches, warmBatches   int
	perBatch, warmPerBatch int
	// minRounds guarantees enough per-trial samples for the reported
	// percentiles; roundSeconds is the nominal round length that maps
	// --seconds onto a fixed round count.
	minRounds    int
	roundSeconds float64
	// calChunks is how many host-speed calibration chunks run after each
	// timed batch.
	calChunks int
	check     bcm.CheckMode
	newRig    func(tr *tracer, telemetryOff bool) (rig, error)
}

func workloads() map[string]*workload {
	blind := &fleetLoad{
		spec:        target.Spec{Target: "bench", Check: bcm.CheckByteOnly, Stop: true},
		cfg:         core.Config{Interval: time.Millisecond},
		maxPerTrial: 30 * time.Minute,
	}
	guided := &fleetLoad{
		spec:        target.Spec{Target: "bench", Check: bcm.CheckByteOnly, Stop: true},
		cfg:         core.Config{Mode: core.ModeGuided, Interval: time.Millisecond},
		maxPerTrial: 30 * time.Minute,
		live:        true,
	}
	service := &serviceLoad{template: newServiceTemplate()}
	fleetRigFor := func(l *fleetLoad) func(*tracer, bool) (rig, error) {
		return func(tr *tracer, telemetryOff bool) (rig, error) { return l.newRig(tr, telemetryOff), nil }
	}
	return map[string]*workload{
		"blind-unlock": {
			name: "blind-unlock", batches: 10, perBatch: 10, warmBatches: 1, warmPerBatch: 2,
			minRounds: 1, roundSeconds: 40, calChunks: 10,
			check:  bcm.CheckByteOnly,
			newRig: fleetRigFor(blind),
		},
		"guided-unlock-live": {
			name: "guided-unlock-live", batches: 2, perBatch: 50, warmBatches: 1, warmPerBatch: 25,
			minRounds: 3, roundSeconds: 2.4, calChunks: 4,
			check:  bcm.CheckByteOnly,
			newRig: fleetRigFor(guided),
		},
		"service-short-trials": {
			name: "service-short-trials", batches: 4, perBatch: 250, warmBatches: 2, warmPerBatch: 250,
			minRounds: 3, roundSeconds: 0.6, calChunks: 1,
			check: bcm.CheckByteOnly,
			newRig: func(tr *tracer, _ bool) (rig, error) {
				return service.newRig(os.TempDir(), tr), nil
			},
		},
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome accumulates a run's operations, failures and metrics.
type outcome struct {
	attempted, failed int
	failures          []string
	metrics           map[string]metric
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

// op records one operation (a trial or a check) and whether it failed.
func (o *outcome) op(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// ops records n operations of which failed failed.
func (o *outcome) ops(n, failed int, format string, args ...any) {
	o.attempted += n
	if failed > 0 {
		o.failed += failed
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) set(name string, v float64, unit, note string) {
	if !validName(name) {
		panic("invalid metric name " + name)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		note = " (" + note + ")"
	}
	fmt.Printf("%-34s %14.6g %s%s\n", name, v, unit, note)
}

// counts is one round's simulated work, summed over its batch reports.
type counts struct {
	Frames   uint64
	Trials   int
	Findings int
	Timeouts int
	// Failed trials: panics, errors and stalls.
	Failed int
	// Virtual time to finding, summed over finding trials.
	unlockVirtual time.Duration
}

func countReports(reps [][]byte) (counts, []*fleet.Report, error) {
	var c counts
	parsed := make([]*fleet.Report, len(reps))
	for i, b := range reps {
		rep, err := fleet.ReadReport(bytes.NewReader(b))
		if err != nil {
			return c, nil, fmt.Errorf("batch %d report: %w", i, err)
		}
		parsed[i] = rep
		c.Frames += rep.FramesSent
		c.Trials += rep.Trials
		c.Findings += rep.FoundFindings
		c.Timeouts += rep.TimedOut
		c.Failed += rep.Panics + rep.Errors + rep.Stalled
		for _, tr := range rep.Results {
			if tr.Status == fleet.StatusFinding {
				c.unlockVirtual += tr.TimeToFinding
			}
		}
	}
	return c, parsed, nil
}

// seedsFor derives n batch base seeds from the base seed, starting at
// index offset.
func seedsFor(base int64, offset, n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = faults.DeriveSeed(base, offset+i)
	}
	return s
}

func identity(n int) []int {
	o := make([]int, n)
	for i := range o {
		o[i] = i
	}
	return o
}

// setUp builds a rig and runs its warm-up batches, returning the rig and
// the set-up wall time.
func setUp(w *workload, warm []int64, tr *tracer, telemetryOff bool) (rig, time.Duration, error) {
	start := time.Now()
	r, err := w.newRig(tr, telemetryOff)
	if err != nil {
		return nil, 0, err
	}
	if _, _, err := r.round(warm, w.warmPerBatch, identity(len(warm)), func() {}); err != nil {
		r.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	d := time.Since(start)
	r.clearStats()
	return r, d, nil
}

func main() {
	// Everything — simulation, HTTP client and server, garbage collector —
	// shares one thread, so a neighbour on the host's other vCPU cannot
	// stretch cross-thread hand-offs, and the calibration chunks (which run
	// on the same thread) see the same host.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: blind-unlock, guided-unlock-live or service-short-trials")
	seed := fs.Int64("seed", 1, "orders each round's batches; never changes the set of trials")
	seconds := fs.Int("seconds", 20, "nominal measured seconds; fixes the number of rounds")
	trace := fs.Int("trace", 0, "1 = per-layer traced run instead of end-to-end metrics")
	baseSeed := fs.Int64("base-seed", 20180625, "root of every batch and trial seed")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	w, ok := workloads()[*name]
	if !ok || fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload blind-unlock|guided-unlock-live|service-short-trials, --seconds >= 1, --trace 0|1")
		return 2
	}
	rounds := int(float64(*seconds)/w.roundSeconds + 0.5)
	if rounds < w.minRounds {
		rounds = w.minRounds
	}
	seeds := seedsFor(*baseSeed, 0, w.batches)
	warm := seedsFor(*baseSeed, warmBatchIndex, w.warmBatches)

	var out *outcome
	var err error
	if *trace == 1 {
		out, err = runTraced(w, seeds, warm, *seed)
	} else {
		out, err = runTimed(w, seeds, warm, rounds, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, f := range out.failures {
		fmt.Println("FAILED:", f)
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runTimed is the untraced end-to-end run.
func runTimed(w *workload, seeds, warm []int64, rounds int, seed int64) (*outcome, error) {
	out := newOutcome()
	host := newHostSpeed()
	var setups []float64
	var r rig
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
			// Each set-up starts from a collected heap, so the previous
			// set-up's garbage cannot decide the peak RSS.
			runtime.GC()
		}
		var d time.Duration
		var err error
		if r, d, err = setUp(w, warm, nil, false); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		host.chunks(setupChunks)
	}
	defer r.close()
	runtime.GC()
	timedFrom := len(host.samples)

	var frameRates, trialRates []float64
	var first counts
	var firstReps [][]byte
	var walls []float64
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < rounds; i++ {
		wall, reps, err := r.round(seeds, w.perBatch, rng.Perm(len(seeds)), func() { host.chunks(w.calChunks) })
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		walls = append(walls, r.takeWalls()...)
		c, _, err := countReports(reps)
		if err != nil {
			return nil, err
		}
		fmt.Printf("round %d: frames=%d trials=%d findings=%d timeouts=%d wall=%.3fs\n",
			i, c.Frames, c.Trials, c.Findings, c.Timeouts, wall.Seconds())
		out.ops(c.Trials, c.Failed, "round %d: %d trials panicked, errored or stalled", i, c.Failed)
		frameRates = append(frameRates, float64(c.Frames)/wall.Seconds())
		trialRates = append(trialRates, float64(c.Trials)/wall.Seconds())
		if i == 0 {
			first, firstReps = c, reps
			continue
		}
		// Work-count guard: every round repeats the same trials, so any
		// difference is a benchmark or determinism defect, not noise. (A
		// one-round run is guarded across runs by steady.py.)
		out.op(c == first, "round %d work counts %+v differ from round 0's %+v", i, c, first)
		for b := range reps {
			out.op(bytes.Equal(reps[b], firstReps[b]), "round %d batch %d report differs from round 0's", i, b)
		}
	}
	rss, rssErr := peakRSSMB()

	_, parsed, err := countReports(firstReps)
	if err != nil {
		return nil, err
	}
	if err := checkOutputs(w, r, seeds, parsed, firstReps, out); err != nil {
		return nil, err
	}
	if sr, ok := r.(*serviceRig); ok {
		sr.rt.mu.Lock()
		n, first := sr.rt.httpErrs, sr.rt.firstErr
		sr.rt.mu.Unlock()
		out.op(n == 0, "%d HTTP errors, first: %s", n, first)
	}

	fmt.Printf("workcount %s frames=%d trials=%d findings=%d timeouts=%d rounds=%d\n",
		w.name, first.Frames, first.Trials, first.Findings, first.Timeouts, rounds)
	// Host-speed normalisation: each phase's time metrics are divided, and
	// rates multiplied, by the host factor measured by the calibration
	// chunks interleaved with that phase, so a run on a host slowed by its
	// neighbours reports what the nominal host would have measured.
	kSetup, k := host.factor(0, timedFrom), host.factor(timedFrom, len(host.samples))
	fmt.Printf("set-ups: %.4g s\n", setups)
	fmt.Printf("host factor: %.4f over %d chunks in set-up, %.4f over %d chunks in the timed rounds (nominal chunk %v)\n",
		kSetup, timedFrom, k, len(host.samples)-timedFrom, nominalChunk)
	raw := func(v float64, unit string) string { return fmt.Sprintf("raw %.6g %s", v, unit) }
	out.set("setup_s", median(setups)/kSetup, "s",
		fmt.Sprintf("median of %d set-ups, %s", len(setups), raw(median(setups), "s")))
	out.set("frames_per_s", median(frameRates)*k, "1/s",
		fmt.Sprintf("median of %d rounds, %s", rounds, raw(median(frameRates), "1/s")))
	out.set("trials_per_s", median(trialRates)*k, "1/s",
		fmt.Sprintf("median of %d rounds, %s", rounds, raw(median(trialRates), "1/s")))
	for _, q := range []struct {
		name string
		q    float64
	}{{"trial_wall_ms_p50", 0.5}, {"trial_wall_ms_p90", 0.9}} {
		v, beyond, err := percentile(walls, q.q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
		out.set(q.name, v/k, "ms", fmt.Sprintf("n=%d, %d beyond, %s", len(walls), beyond, raw(v, "ms")))
	}
	if rssErr != nil {
		return nil, fmt.Errorf("max_rss_mb: %w", rssErr)
	}
	out.set("max_rss_mb", rss, "MB", "peak RSS before checks")
	return out, nil
}

// checkOutputs runs the output checks that do not depend on the RNG
// stream, each counted as an operation.
func checkOutputs(w *workload, r rig, seeds []int64, parsed []*fleet.Report, reps [][]byte, out *outcome) error {
	for b, rep := range parsed {
		n, first := checkFleetReport(rep, w.check)
		out.op(n == 0, "batch %d: %d failed trigger checks, first: %s", b, n, first)
	}
	switch rr := r.(type) {
	case *fleetRig:
		// The reuse path must match the cold path on a sample of trials:
		// the first trial of the first batch and the last of the last.
		samples := [][2]int{{0, 0}, {len(parsed) - 1, parsed[len(parsed)-1].Trials - 1}}
		for _, s := range samples {
			err := rr.coldMatches(parsed[s[0]], s[1])
			out.op(err == nil, "reuse vs cold: %v", err)
		}
	case *serviceRig:
		for b, seed := range seeds {
			want, err := rr.inProcessReport(seed, w.perBatch)
			if err != nil {
				return err
			}
			out.op(bytes.Equal(reps[b], want),
				"batch %d: service report.json differs from in-process fleet.Run", b)
		}
	}
	return nil
}

// perLayer lists every per-layer metric with its unit, in report order.
var perLayer = []struct{ name, unit string }{
	{"core.gen_ns_per_frame", "ns"},
	{"testbench.self_ns_per_frame", "ns"},
	{"core.frames_per_trial_mean", "count"},
	{"core.unlock_virtual_s_mean", "s"},
	{"guided.next_ns_per_frame", "ns"},
	{"guided.observe_ns_per_msg", "ns"},
	{"guided.novelty_per_kframe", "1/kframe"},
	{"guided.corpus_size_mean", "count"},
	{"guided.frames_per_unlock_mean", "count"},
	{"telemetry.ns_per_frame", "ns"},
	{"telemetry.events_per_frame", "1/frame"},
	{"fleet.reset_us_mean", "us"},
	{"fleet.resets", "count"},
	{"target.build_ms_mean", "ms"},
	{"target.builds", "count"},
	{"campaignd.lease_rtt_ms_p50", "ms"},
	{"campaignd.lease_rtt_ms_p99", "ms"},
	{"campaignd.submit_rtt_ms_p50", "ms"},
	{"campaignd.submit_rtt_ms_p99", "ms"},
	{"campaignd.trial_run_ms_mean", "ms"},
	{"campsrv.lease_handler_us_mean", "us"},
	{"campsrv.result_handler_us_mean", "us"},
	{"campaignd.lease_waits", "count"},
	{"campaignd.retries", "count"},
	{"go.gc_cycles", "count"},
	{"go.alloc_bytes_per_trial", "B"},
	{"trace.overhead_pct", "%"},
}

// runTraced measures one untraced round, then the same round with the
// span wrappers installed (and, on the live-telemetry workload, once more
// with telemetry off), and reports the per-layer breakdown.
func runTraced(w *workload, seeds, warm []int64, seed int64) (*outcome, error) {
	out := newOutcome()
	order := rand.New(rand.NewSource(seed)).Perm(len(seeds))
	// Each round's wall time is normalised by the calibration chunks run
	// between its own batches, so overhead and ablation deltas compare
	// rounds as if they had run on the same host.
	host := newHostSpeed()
	normalised := func(r rig, between func()) (float64, [][]byte, error) {
		from := len(host.samples)
		wall, reps, err := r.round(seeds, w.perBatch, order, func() {
			between()
			host.chunks(w.calChunks)
		})
		if err != nil {
			return 0, nil, err
		}
		return wall.Seconds() / host.factor(from, len(host.samples)), reps, nil
	}

	// Untraced reference round: wall time, reports, Go runtime counters.
	ref, _, err := setUp(w, warm, nil, false)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	// The counters are read after every batch, before its calibration
	// chunks run; the last read stands.
	refWall, refReps, err := normalised(ref, func() { runtime.ReadMemStats(&m1) })
	if cerr := ref.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("reference round: %w", err)
	}
	c, parsed, err := countReports(refReps)
	if err != nil {
		return nil, err
	}

	// Traced round on a fresh set-up; its warm-up is not recorded.
	calibrateClock()
	fmt.Printf("trace: clock pair costs %.1f ns, subtracted from every sampled call\n", clockPairNs)
	tr := newTracer()
	traced, _, err := setUp(w, warm, tr, false)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	trWall, trReps, err := normalised(traced, func() {})
	if cerr := traced.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("traced round: %w", err)
	}
	for b := range trReps {
		out.op(bytes.Equal(trReps[b], refReps[b]), "batch %d: traced report differs from untraced", b)
	}
	for b, rep := range parsed {
		n, first := checkFleetReport(rep, w.check)
		out.op(n == 0, "batch %d: %d failed trigger checks, first: %s", b, n, first)
	}
	ierr := tr.integrity()
	out.op(ierr == nil, "span accounting: %v", ierr)
	fmt.Printf("workcount %s frames=%d trials=%d findings=%d timeouts=%d rounds=1\n",
		w.name, c.Frames, c.Trials, c.Findings, c.Timeouts)
	fmt.Printf("trace: %d trial spans, %.3fs traced vs %.3fs untraced (host-normalised)\n", tr.trials, trWall, refWall)

	vals := map[string]float64{}
	frames := float64(c.Frames)
	trials := float64(c.Trials)
	vals["core.gen_ns_per_frame"] = tr.nsPerCall("core.gen")
	vals["testbench.self_ns_per_frame"] = tr.selfNs() / frames
	vals["core.frames_per_trial_mean"] = frames / trials
	if c.Findings > 0 {
		vals["core.unlock_virtual_s_mean"] = c.unlockVirtual.Seconds() / float64(c.Findings)
	}
	vals["guided.next_ns_per_frame"] = tr.nsPerCall("guided.next")
	vals["guided.observe_ns_per_msg"] = tr.nsPerCall("guided.observe")
	vals["fleet.reset_us_mean"] = tr.nsPerCall("fleet.reset") / 1e3
	vals["fleet.resets"] = float64(tr.calls("fleet.reset"))
	vals["target.build_ms_mean"] = tr.nsPerCall("target.build") / 1e6
	vals["target.builds"] = float64(tr.calls("target.build"))
	vals["go.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	vals["go.alloc_bytes_per_trial"] = float64(m1.TotalAlloc-m0.TotalAlloc) / trials
	vals["trace.overhead_pct"] = 100 * (trWall/refWall - 1)

	switch rr := traced.(type) {
	case *fleetRig:
		d := rr.layerData
		if rr.load.live {
			vals["guided.novelty_per_kframe"] = 1000 * float64(d.noveltyHits) / float64(d.frames)
			vals["guided.corpus_size_mean"] = float64(d.corpusSum) / float64(d.trials)
			if d.unlocks > 0 {
				vals["guided.frames_per_unlock_mean"] = float64(d.unlockFrames) / float64(d.unlocks)
			}
			vals["telemetry.events_per_frame"] = float64(d.traceEvents) / float64(d.frames)
			// Telemetry ablation: the same round with Options.Telemetry nil.
			abl, _, err := setUp(w, warm, nil, true)
			if err != nil {
				return nil, fmt.Errorf("ablation set-up: %w", err)
			}
			ablWall, ablReps, err := normalised(abl, func() {})
			if cerr := abl.close(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, fmt.Errorf("ablation round: %w", err)
			}
			for b := range ablReps {
				out.op(bytes.Equal(ablReps[b], refReps[b]), "batch %d: report without telemetry differs", b)
			}
			vals["telemetry.ns_per_frame"] = 1e9 * (refWall - ablWall) / frames
			fmt.Printf("telemetry ablation: %.3fs with, %.3fs without (host-normalised)\n", refWall, ablWall)
		}
	case *serviceRig:
		for _, p := range []struct {
			name, layer string
			q           float64
		}{
			{"campaignd.lease_rtt_ms_p50", "campaignd.lease_rtt", 0.5},
			{"campaignd.lease_rtt_ms_p99", "campaignd.lease_rtt", 0.99},
			{"campaignd.submit_rtt_ms_p50", "campaignd.submit_rtt", 0.5},
			{"campaignd.submit_rtt_ms_p99", "campaignd.submit_rtt", 0.99},
		} {
			v, beyond, err := percentile(tr.samples(p.layer), p.q)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
			fmt.Printf("%s: n=%d, %d beyond\n", p.name, len(tr.samples(p.layer)), beyond)
			vals[p.name] = v / 1e6
		}
		rt := rr.rt
		rt.mu.Lock()
		vals["campaignd.trial_run_ms_mean"] = mean(rt.runMs)
		vals["campaignd.lease_waits"] = float64(rt.leases - int(trials) - len(seeds))
		vals["campaignd.retries"] = float64(rt.httpErrs)
		httpErrs, firstErr := rt.httpErrs, rt.firstErr
		rt.mu.Unlock()
		out.op(httpErrs == 0, "%d HTTP errors, first: %s", httpErrs, firstErr)
		vals["campsrv.lease_handler_us_mean"] = tr.nsPerCall("campsrv.lease_handler") / 1e3
		vals["campsrv.result_handler_us_mean"] = tr.nsPerCall("campsrv.result_handler") / 1e3
	}
	declared := map[string]bool{}
	for _, p := range perLayer {
		declared[p.name] = true
		out.set(p.name, vals[p.name], p.unit, "")
	}
	for name := range vals {
		if !declared[name] {
			return nil, fmt.Errorf("per-layer value %q without a declared metric", name)
		}
	}
	return out, nil
}
