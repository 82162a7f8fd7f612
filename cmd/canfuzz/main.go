// Command canfuzz is the reproduction of the paper's PC-based fuzzer (§V,
// Figs 2-3): a configurable CAN fuzzer runnable against the built-in
// targets — the bench-top unlock testbed, the instrument cluster on a
// bench, or the full simulated vehicle.
//
// Usage examples:
//
//	canfuzz -target bench -dur 30m              # hunt the unlock (Table V)
//	canfuzz -target cluster -dur 5m             # brick the cluster (Fig 9)
//	canfuzz -target vehicle -bus body -dur 10s  # disturb the car (Figs 7-8)
//	canfuzz -target bench -ids 215 -len-min 7 -len-max 7   # targeted
//	canfuzz -target bench -trials 1000 -workers 8 -json    # fleet (Table V distribution)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"repro/internal/campaignd"
	"repro/internal/can"
	"repro/internal/capture"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ecu"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/guided"
	"repro/internal/observatory"
	"repro/internal/telemetry"

	targetPkg "repro/internal/target"

	busPkg "repro/internal/bus"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		os.Exit(1)
	}
}

// run is the whole tool: it parses args, runs the selected mode and logs a
// failure as "run failed" before returning it. The structured stderr
// logger is built from -log-level/-log-format and passed down, never kept
// in a global, so concurrent runs do not share it.
func run(args []string) (err error) {
	logger := telemetry.NewCLILogger(os.Stderr, "canfuzz", slog.LevelInfo)
	defer func() {
		if err != nil {
			logger.Error("run failed", "err", err)
		}
	}()
	fs := flag.NewFlagSet("canfuzz", flag.ContinueOnError)
	target := fs.String("target", "bench", "target system: bench, cluster or vehicle")
	busName := fs.String("bus", "body", "vehicle bus: body or powertrain")
	seed := fs.Int64("seed", 1, "campaign seed")
	dur := fs.Duration("dur", 10*time.Minute, "maximum virtual fuzzing time")
	interval := fs.Duration("interval", time.Millisecond, "transmission interval (>= 1ms)")
	idMin := fs.Uint("id-min", 0, "lowest fuzzed identifier")
	idMax := fs.Uint("id-max", can.MaxID, "highest fuzzed identifier")
	ids := fs.String("ids", "", "comma-separated hex identifiers for targeted fuzzing")
	lenMin := fs.Int("len-min", 0, "minimum payload length")
	lenMax := fs.Int("len-max", can.MaxDataLen, "maximum payload length")
	stop := fs.Bool("stop-on-finding", true, "halt at first finding")
	check := fs.String("bcm-check", "byte", "bench BCM parser: byte, length or twobytes")
	mode := fs.String("mode", "random", "generation mode: random, mutate, sweep, bits or guided")
	configFile := fs.String("config", "", "JSON campaign configuration (overrides the range flags)")
	jsonOut := fs.Bool("json", false, "print a machine-readable campaign report")
	corpusFile := fs.String("corpus", "", "seed corpus for mutate, bits and guided modes: ID#HEXDATA lines or a capture log")
	mutateBits := fs.Int("mutate-bits", 1, "bits flipped per frame in mutate/bits modes")
	sweepLen := fs.Int("sweep-len", 1, "fixed payload length for sweep mode")
	chaosSpec := fs.String("chaos", "", `fault-injection plan, e.g. "seed=1;corrupt(p=1,at=2s,for=50ms);jam(at=5s,for=10ms)"`)
	recovery := fs.Bool("recover", false, "ISO 11898-1 bus-off auto-recovery plus the campaign resilience policy")
	metricsAddr := fs.String("metrics", "", "serve /metrics, /healthz and /trace.json on this address (e.g. localhost:9900)")
	traceFile := fs.String("trace", "", "write the campaign as Chrome trace_event JSON to this file (open in Perfetto)")
	metricsHold := fs.Duration("metrics-hold", 0, "keep the metrics endpoint up this long (wall time) after the campaign ends")
	trials := fs.Int("trials", 1, "number of independent fleet trials (>= 1; > 1 enables fleet mode)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "fleet worker-pool size (>= 1)")
	failFast := fs.Bool("fail-fast", false, "fleet mode: stop dispatching trials after the first confirmed finding")
	corpusOut := fs.String("corpus-out", "", "guided mode: write the evolved corpus here (fleet: the merged corpus)")
	minimize := fs.Bool("minimize", false, "minimize the first finding's trigger window to a minimal reproducer after the run")
	minimizeOut := fs.String("minimize-out", "", "write the minimized reproducer as a canreplay-compatible capture log (implies -minimize)")
	findingsDB := fs.String("findings-db", "", "merge this run's findings into the deduplicated findings database at this directory (see cmd/canregress)")
	eventsFile := fs.String("events", "", "fleet mode: stream the campaign event log (JSONL) to this file")
	pprofFlag := fs.Bool("pprof", false, "mount net/http/pprof on the -metrics endpoint")
	trialTimeout := fs.Duration("trial-timeout", 0, "fleet mode: wall-clock budget per trial (0 = none); a hung trial is cancelled and counted stalled")
	workerURL := fs.String("worker", "", "run as a campaign worker for the canfuzzd service at this URL (e.g. http://host:9090)")
	workerName := fs.String("worker-name", "", "worker mode: name reported to the service (default hostname-pid)")
	submitURL := fs.String("submit", "", "submit this invocation's campaign to the canfuzzd service at this URL and print the campaign ID")
	watch := fs.Bool("watch", false, "submit mode: poll the service until the campaign completes, then print its final report (and write -corpus-out)")
	priority := fs.Int("priority", 1, "submit mode: fair-share scheduling weight (>= 1; higher gets proportionally more of the fleet)")
	maxInflight := fs.Int("max-inflight", 0, "submit mode: cap on this campaign's concurrently leased trials (0 = unlimited)")
	statusURL := fs.String("status", "", "print a one-line-per-campaign table from the canfuzzd service at this URL and exit")
	token := fs.String("token", "", "bearer token for the canfuzzd campaign API (worker/submit/status modes)")
	logFlags := telemetry.RegisterLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	l, err := logFlags.Logger(os.Stderr, "canfuzz")
	if err != nil {
		return err
	}
	logger = l
	if *minimizeOut != "" {
		*minimize = true
	}

	// Status mode is a pure read: one /fleet.json fetch, one table, exit.
	if *statusURL != "" {
		return runStatus(*statusURL, *token)
	}

	// Worker mode is a different program: the campaign definition comes
	// from the service, so any local campaign flag is rejected.
	if *workerURL != "" {
		if err := rejectWorkerFlags(fs); err != nil {
			return err
		}
		return runWorker(logger, *workerURL, *workerName, *token)
	}
	if *priority < 1 {
		return fmt.Errorf("-priority must be >= 1, got %d", *priority)
	}
	if *maxInflight < 0 {
		return fmt.Errorf("-max-inflight must be >= 0, got %d", *maxInflight)
	}
	if *submitURL == "" && *watch {
		return fmt.Errorf("-watch requires -submit")
	}

	// Flag validation: loud errors instead of silent misbehaviour.
	if *trials < 1 {
		return fmt.Errorf("-trials must be >= 1, got %d", *trials)
	}
	if *workers < 1 {
		return fmt.Errorf("-workers must be >= 1, got %d", *workers)
	}
	if *interval < core.MinInterval {
		return fmt.Errorf("-interval must be >= 1ms (the fuzzer's maximum rate, §VI), got %v", *interval)
	}
	if *trials > 1 {
		switch {
		case *chaosSpec != "":
			return fmt.Errorf("-chaos is not supported in fleet mode (-trials > 1): fault plans attach to one world")
		case *traceFile != "":
			return fmt.Errorf("-trace is not supported in fleet mode (-trials > 1): a Chrome trace captures one world's event stream")
		case *mode == "bits":
			return fmt.Errorf("-mode bits is not supported in fleet mode (-trials > 1)")
		case *minimize:
			return fmt.Errorf("-minimize is not supported in fleet mode (-trials > 1): minimize the single-run reproduction of one trial instead")
		}
	}
	if *eventsFile != "" && *trials <= 1 {
		return fmt.Errorf("-events requires fleet mode (-trials > 1): the event log streams per-trial records")
	}
	if *trialTimeout < 0 {
		return fmt.Errorf("-trial-timeout must be >= 0, got %v", *trialTimeout)
	}
	if *trialTimeout != 0 && *trials <= 1 && *submitURL == "" {
		return fmt.Errorf("-trial-timeout requires fleet mode (-trials > 1) or -submit: a single run has no trial to cancel")
	}
	if *submitURL != "" {
		switch {
		case *chaosSpec != "" || *traceFile != "" || *minimize:
			return fmt.Errorf("-chaos/-trace/-minimize are not supported with -submit: the campaign runs on the service's worker fleet")
		case *metricsAddr != "" || *eventsFile != "":
			return fmt.Errorf("-metrics/-events are not supported with -submit: the canfuzzd service owns the observatory and the journal")
		case *failFast:
			return fmt.Errorf("-fail-fast is not supported with -submit: early stop would make the report depend on worker timing")
		case *findingsDB != "":
			return fmt.Errorf("-findings-db is not supported with -submit: run canfuzzd -findings-db instead")
		case *corpusOut != "" && !*watch:
			return fmt.Errorf("-corpus-out with -submit requires -watch: the merged corpus arrives with the final report")
		}
	}
	if *pprofFlag && *metricsAddr == "" {
		return fmt.Errorf("-pprof requires -metrics: profiles are served on the metrics endpoint")
	}
	if *minimize && *chaosSpec != "" {
		return fmt.Errorf("-minimize is not supported with -chaos: replay worlds are rebuilt without the fault plan")
	}

	cfg := core.Config{
		Seed:       *seed,
		IDMin:      can.ID(*idMin),
		IDMax:      can.ID(*idMax),
		LenMin:     *lenMin,
		LenMax:     *lenMax,
		Interval:   *interval,
		MutateBits: *mutateBits,
		SweepLen:   *sweepLen,
	}
	if *configFile != "" {
		f, err := os.Open(*configFile)
		if err != nil {
			return err
		}
		cfg, err = core.ParseConfigJSON(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("config %s: %w", *configFile, err)
		}
		switch cfg.Mode {
		case core.ModeMutate:
			*mode = "mutate"
		case core.ModeSweep:
			*mode = "sweep"
		case core.ModeGuided:
			*mode = "guided"
		default:
			*mode = "random"
		}
	}
	if *ids != "" {
		for _, tok := range strings.Split(*ids, ",") {
			id, err := can.ParseID(strings.TrimSpace(tok))
			if err != nil {
				return fmt.Errorf("-ids: %w", err)
			}
			cfg.TargetIDs = append(cfg.TargetIDs, id)
		}
	}

	var corpus []can.Frame
	if *corpusFile != "" {
		f, err := os.Open(*corpusFile)
		if err != nil {
			return err
		}
		corpus, err = capture.ReadFrames(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("corpus %s: %w", *corpusFile, err)
		}
		if len(corpus) == 0 {
			return fmt.Errorf("corpus %q holds no frames", *corpusFile)
		}
	}

	// The telemetry plane is created only when observability is requested;
	// otherwise every hook stays nil and the hot path is unchanged. In
	// fleet mode it is the campaign-level plane behind the observatory
	// handler, not a per-world instrument.
	var tel *telemetry.Telemetry
	if *metricsAddr != "" || *traceFile != "" {
		tel = telemetry.New(0)
	}

	// SIGINT cancels holds and drains the HTTP endpoint instead of killing
	// the process mid-write.
	ctx, cancelSig := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancelSig()

	if *mode != "guided" && *corpusOut != "" {
		return fmt.Errorf("-corpus-out requires -mode guided")
	}
	if (*mode == "random" || *mode == "sweep") && corpus != nil {
		return fmt.Errorf("-corpus seeds mutate, bits and guided modes, not -mode %s", *mode)
	}

	switch *mode {
	case "random":
	case "mutate":
		cfg.Mode = core.ModeMutate
		if len(corpus) > 0 {
			cfg.Corpus = corpus
			cfg.MutateID = true
		}
	case "sweep":
		cfg.Mode = core.ModeSweep
	case "guided":
		cfg.Mode = core.ModeGuided
		if len(corpus) > 0 {
			cfg.Corpus = corpus
		}
	case "bits":
		if *chaosSpec != "" || *recovery {
			return fmt.Errorf("-chaos/-recover are not supported in bits mode")
		}
		if *minimize {
			return fmt.Errorf("-minimize is not supported in bits mode")
		}
		return runBitsMode(ctx, logger, *seed, *dur, *interval, *mutateBits, corpus,
			tel, *metricsAddr, *traceFile, *metricsHold)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}

	checkMode, err := targetPkg.ParseCheckMode(*check)
	if err != nil {
		return err
	}
	spec := targetPkg.Spec{
		Target:   *target,
		Bus:      *busName,
		Check:    checkMode,
		Stop:     *stop,
		Recovery: *recovery,
	}

	// The chaos plan is parsed up front; the injector itself is built per
	// world so it shares the world's scheduler.
	var plan *faults.Plan
	if *chaosSpec != "" {
		p, perr := faults.ParsePlan(*chaosSpec)
		if perr != nil {
			return perr
		}
		plan = &p
	}

	if *submitURL != "" {
		// The wire spec is the complete campaign definition: workers rebuild
		// identical worlds from it, and the journal embeds it so a resumed
		// service can prove it is continuing the same campaign.
		wireSpec := campaignd.CampaignSpec{
			Target:            spec.Target,
			Bus:               spec.Bus,
			BCMCheck:          *check,
			StopOnFinding:     spec.Stop,
			Recovery:          spec.Recovery,
			Trials:            *trials,
			BaseSeed:          cfg.Seed,
			MaxPerTrialNanos:  int64(*dur),
			TrialTimeoutNanos: int64(*trialTimeout),
			Config:            cfg.ToJSON(),
		}
		return runSubmit(ctx, logger, *submitURL, *token, wireSpec, submitOpts{
			priority:    *priority,
			maxInflight: *maxInflight,
			watch:       *watch,
			jsonOut:     *jsonOut,
			corpusOut:   *corpusOut,
		})
	}

	if *trials > 1 {
		return runFleet(ctx, logger, spec, cfg, fleetRunOpts{
			trials:       *trials,
			workers:      *workers,
			maxPerTrial:  *dur,
			trialTimeout: *trialTimeout,
			failFast:     *failFast,
			jsonOut:      *jsonOut,
			corpusOut:    *corpusOut,
			eventsFile:   *eventsFile,
			metricsAddr:  *metricsAddr,
			metricsHold:  *metricsHold,
			pprof:        *pprofFlag,
			tel:          tel,
			findingsDB:   *findingsDB,
		})
	}

	// A single run is a one-trial campaign: the same observatory handler
	// serves it, with fuzzer introspection wired when the engine is guided.
	var intr *guided.Introspection
	if *metricsAddr != "" && cfg.Mode == core.ModeGuided {
		intr = guided.NewIntrospection()
	}

	buildStart := time.Now()
	world, inj, err := newWorld(spec, cfg, tel, plan, intr)
	if err != nil {
		return err
	}
	buildWall := time.Since(buildStart)
	sched, campaign := world.Sched, world.Campaign

	logger.Info("fuzzing", "target", *target, "space", cfg.SpaceSize(),
		"interval", campaign.Generator().Config().Interval, "seed", *seed)

	var handler *observatory.Observatory
	if *metricsAddr != "" {
		handler = observatory.New(observatory.Config{Fuzz: intr, Telemetry: tel})
	}
	stopServing, err := serveObservatory(logger, handler, *metricsAddr, *pprofFlag)
	if err != nil {
		return err
	}
	defer stopServing()

	if inj != nil {
		if err := inj.Start(); err != nil {
			return err
		}
		logger.Info("chaos armed", "kinds", strings.Join(inj.Plan().Kinds(), ","),
			"recover", *recovery)
	}

	runStart := time.Now()
	campaign.Start()
	sched.RunUntil(sched.Now() + *dur)
	campaign.Stop()
	runWall := time.Since(runStart)
	if inj != nil {
		inj.Stop()
	}

	if err := finishTelemetry(ctx, logger, tel, *traceFile, *metricsHold); err != nil {
		return err
	}

	if *corpusOut != "" && world.Corpus != nil {
		if err := writeCorpusFile(logger, *corpusOut, world.Corpus()); err != nil {
			return err
		}
	}

	var minimized *core.MinimizedTrigger
	var minimizeWall time.Duration
	if *minimize {
		var err error
		minimizeStart := time.Now()
		if minimized, err = runMinimize(logger, spec, cfg, campaign, *minimizeOut); err != nil {
			return err
		}
		minimizeWall = time.Since(minimizeStart)
	}
	logger.Info("phase wall time",
		"build", buildWall.Round(time.Microsecond),
		"run", runWall.Round(time.Microsecond),
		"minimize", minimizeWall.Round(time.Microsecond))

	rep := campaign.BuildReport()
	rep.Minimized = minimized
	if *findingsDB != "" {
		n, err := mergeRunFindings(*findingsDB, spec, cfg, *chaosSpec, campaign, minimized, *minimizeOut)
		if err != nil {
			return err
		}
		logger.Info("findings db updated", "dir", *findingsDB, "new_records", n)
	}
	if *jsonOut {
		return rep.WriteJSON(os.Stdout)
	}
	fmt.Printf("sent %d frames (%d rejected) in %v virtual time\n",
		campaign.FramesSent(), campaign.SendErrors(), sched.Now())
	fmt.Printf("identifier coverage: %d distinct ids fuzzed\n",
		campaign.Monitor().DistinctIDsSent())
	if inj != nil {
		fmt.Printf("faults injected by kind: %v\n", inj.Counts())
	}
	if rep.CorpusSize > 0 || rep.NoveltyHits > 0 {
		fmt.Printf("guided: corpus %d frames, %d novel features\n",
			rep.CorpusSize, rep.NoveltyHits)
	}
	if rep.Resilience != nil {
		fmt.Printf("resilience: %d retries (%d exhausted), %d watchdog fires, %d bus-offs, %d recoveries\n",
			rep.Resilience.Retries, rep.Resilience.RetriesExhausted,
			rep.Resilience.WatchdogFires, rep.Resilience.PortBusOffs, rep.Resilience.PortRecoveries)
	}
	findings := campaign.Findings()
	if len(findings) == 0 {
		fmt.Println("no findings (remember: not triggering anything does not mean no flaws exist)")
		return nil
	}
	for i, f := range findings {
		fmt.Printf("finding %d: [%s] %s after %v (%d frames)\n",
			i+1, f.Verdict.Oracle, f.Verdict.Detail, f.Elapsed, f.FramesSent)
		fmt.Println("  recent frames (oldest first):")
		for _, fr := range f.Recent {
			fmt.Printf("    %s\n", fr)
		}
	}
	if rep.Minimized != nil {
		fmt.Printf("minimized reproducer for [%s]: %d frames (from %d, %d executions)\n",
			rep.Minimized.Oracle, len(rep.Minimized.Frames),
			rep.Minimized.OriginalFrames, rep.Minimized.Executions)
		for _, l := range rep.Minimized.Frames {
			fmt.Printf("    %s\n", l)
		}
	}
	return nil
}

// runMinimize shrinks the first finding's trigger window by re-executing
// candidate subsequences: the first in a freshly built replay world, later
// ones in that world reset in place (bench worlds without a chaos plan) or
// in a fresh build (every other world). It returns nil without error when
// the campaign produced no findings, or when the first finding's trigger
// window does not reproduce it on replay (a finding that depends on state
// older than the window): the report then stays unminimized and the raw
// trigger is what -findings-db records.
func runMinimize(logger *slog.Logger, spec targetPkg.Spec, cfg core.Config, campaign *core.Campaign, outFile string) (*core.MinimizedTrigger, error) {
	findings := campaign.Findings()
	if len(findings) == 0 {
		logger.Info("minimize: no findings to minimize")
		return nil, nil
	}
	f := findings[0]
	interval := campaign.Generator().Config().Interval
	m := &guided.Minimizer{
		Factory: func(fleet.TrialSpec) (*fleet.World, error) {
			w, _, err := newWorld(spec, cfg, nil, nil, nil)
			return w, err
		},
		Seed:     cfg.Seed,
		Oracle:   f.Verdict.Oracle,
		Interval: interval,
	}
	res, err := m.Minimize(f.Recent)
	if errors.Is(err, guided.ErrNoRepro) {
		logger.Warn("minimize: trigger window does not reproduce the finding; keeping it unminimized",
			"oracle", f.Verdict.Oracle, "frames", len(f.Recent))
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("minimize: %w", err)
	}
	logger.Info("minimized", "oracle", res.Oracle, "frames", len(res.Frames),
		"from", res.OriginalFrames, "executions", res.Executions)
	if outFile != "" {
		out, err := os.Create(outFile)
		if err != nil {
			return nil, err
		}
		werr := res.WriteReplayLog(out, "can0", interval)
		if cerr := out.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return nil, werr
		}
		logger.Info("reproducer written", "file", outFile, "frames", len(res.Frames))
	}
	return res.Trigger(), nil
}

// writeCorpusFile serializes an evolved corpus in the shareable
// one-frame-per-line format.
func writeCorpusFile(logger *slog.Logger, path string, lines []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := guided.WriteCorpus(f, lines)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	logger.Info("corpus written", "file", path, "frames", len(lines))
	return nil
}

// newWorld constructs one fully isolated target world through the shared
// internal/target builder. The single-campaign path calls it once with the
// telemetry plane and chaos plan; the fleet calls it once per trial with
// both nil, which is what keeps trials independent and the hot path
// uninstrumented. A non-nil intr registers the world's guided engine (if
// any) with the fuzzer-introspection plane behind /fuzz.json.
func newWorld(spec targetPkg.Spec, cfg core.Config, tel *telemetry.Telemetry, plan *faults.Plan, intr *guided.Introspection) (*fleet.World, *faults.Injector, error) {
	b, err := targetPkg.Build(spec, cfg, targetPkg.Options{
		Telemetry:     tel,
		Plan:          plan,
		Introspection: intr,
	})
	if err != nil {
		return nil, nil, err
	}
	return b.World, b.Injector, nil
}

// fleetRunOpts carries the fleet flags, including the observability
// surface (-events, -metrics, -metrics-hold, -pprof).
type fleetRunOpts struct {
	trials, workers int
	maxPerTrial     time.Duration
	trialTimeout    time.Duration
	failFast        bool
	jsonOut         bool
	corpusOut       string
	eventsFile      string
	metricsAddr     string
	metricsHold     time.Duration
	pprof           bool
	tel             *telemetry.Telemetry
	findingsDB      string
}

// runFleet executes -trials independent campaigns on the worker pool and
// prints the deterministic fleet report (JSON with -json, a summary
// otherwise). With -events or -metrics the campaign observatory rides
// along: a streaming JSONL event log and/or the live HTTP campaign API.
func runFleet(ctx context.Context, logger *slog.Logger, spec targetPkg.Spec, cfg core.Config, o fleetRunOpts) error {
	// Event sink: file-backed with -events, ring-only (for /events tailing)
	// when just the HTTP API is up.
	var sink *observatory.Sink
	var eventsOut *os.File
	if o.eventsFile != "" {
		f, err := os.Create(o.eventsFile)
		if err != nil {
			return err
		}
		eventsOut = f
		defer func() {
			// The success path closes (and nils) eventsOut explicitly so a
			// write error surfaces as a non-zero exit; this only covers the
			// early-error returns above it.
			if eventsOut != nil {
				eventsOut.Close()
			}
		}()
		sink = observatory.NewSink(f)
	} else if o.metricsAddr != "" {
		sink = observatory.NewSink(nil)
	}
	var intr *guided.Introspection
	if o.metricsAddr != "" && cfg.Mode == core.ModeGuided {
		intr = guided.NewIntrospection()
	}
	obs := observatory.New(observatory.Config{Sink: sink, Fuzz: intr, Telemetry: o.tel, Logger: logger})

	stopServing, err := serveObservatory(logger, obs, o.metricsAddr, o.pprof)
	if err != nil {
		return err
	}
	defer stopServing()

	logger.Info("fleet fuzzing", "target", spec.Target, "trials", o.trials,
		"workers", o.workers, "base_seed", cfg.Seed, "max_per_trial", o.maxPerTrial)
	rep, err := fleet.Run(fleet.Config{
		Trials:       o.trials,
		Workers:      o.workers,
		BaseSeed:     cfg.Seed,
		MaxPerTrial:  o.maxPerTrial,
		TrialTimeout: o.trialTimeout,
		FailFast:     o.failFast,
		Observer:     obs,
	}, func(ts fleet.TrialSpec) (*fleet.World, error) {
		tcfg := cfg
		tcfg.Seed = ts.Seed
		w, _, err := newWorld(spec, tcfg, nil, nil, intr)
		return w, err
	})
	if err != nil {
		return err
	}
	// An event log that silently lost writes is worse than no log: surface
	// any sink error, sync-to-disk error or close error as a failed run.
	if serr := sink.Err(); serr != nil {
		return fmt.Errorf("event log %s: %w", o.eventsFile, serr)
	}
	if eventsOut != nil {
		if err := eventsOut.Sync(); err != nil {
			return fmt.Errorf("event log %s: %w", o.eventsFile, err)
		}
		f := eventsOut
		eventsOut = nil // the deferred close must not double-close
		if err := f.Close(); err != nil {
			return fmt.Errorf("event log %s: close: %w", o.eventsFile, err)
		}
		logger.Info("event log written", "file", o.eventsFile, "events", sink.Count())
	}
	if o.corpusOut != "" {
		if err := writeCorpusFile(logger, o.corpusOut, rep.MergedCorpus); err != nil {
			return err
		}
	}
	if o.findingsDB != "" {
		n, err := mergeFleetFindings(o.findingsDB, spec, cfg, rep)
		if err != nil {
			return err
		}
		logger.Info("findings db updated", "dir", o.findingsDB, "new_records", n)
	}
	if o.metricsHold > 0 {
		logger.Info("holding metrics endpoint", "for", o.metricsHold)
		telemetry.Hold(ctx, o.metricsHold)
	}
	logger.Info("phase wall time",
		"build", rep.BuildWall.Round(time.Microsecond),
		"run", rep.RunWall.Round(time.Microsecond))
	if o.jsonOut {
		return rep.WriteJSON(os.Stdout)
	}
	fmt.Printf("phase wall time: build %v, run %v\n",
		rep.BuildWall.Round(time.Millisecond), rep.RunWall.Round(time.Millisecond))
	printFleetReport(rep)
	return nil
}

// printFleetReport prints the human-readable campaign summary shared by the
// in-process fleet and `-submit -watch`. It sticks to the deterministic
// report fields, so both paths describe the same campaign the same way.
func printFleetReport(rep *fleet.Report) {
	fmt.Printf("fleet: %d trials (%d findings, %d timeouts, %d stalled, %d panics, %d skipped) over %v total virtual time\n",
		rep.Trials, rep.FoundFindings, rep.TimedOut, rep.Stalled, rep.Panics, rep.Skipped, rep.VirtualTimeTotal)
	fmt.Printf("sent %d frames (%d rejected) across the fleet\n", rep.FramesSent, rep.SendErrors)
	if ttf := rep.TimeToFinding; ttf != nil {
		fmt.Printf("time to finding: mean %v, median %v, p95 %v, min %v, max %v (%d samples)\n",
			ttf.Mean, ttf.Median, ttf.P95, ttf.Min, ttf.Max, ttf.Samples)
	}
	if len(rep.MergedCorpus) > 0 {
		fmt.Printf("merged corpus: %d distinct frames across the fleet\n", len(rep.MergedCorpus))
	}
	for _, f := range rep.Findings {
		fmt.Printf("finding: [%s] %s (trigger id %s) in %d trials, fastest %v (first trial %d)\n",
			f.Oracle, f.Detail, f.TriggerID, f.Count, f.MinTimeToFinding, f.FirstTrial)
	}
	if rep.FoundFindings == 0 {
		fmt.Println("no findings (remember: not triggering anything does not mean no flaws exist)")
	}
}

// runBitsMode runs the data-link-layer fuzzer against a bench-mounted
// victim ECU and reports the protocol-level damage: error-frame counts and
// the victim's fault-confinement state.
func runBitsMode(ctx context.Context, logger *slog.Logger, seed int64, dur, interval time.Duration, flipBits int, corpus []can.Frame,
	tel *telemetry.Telemetry, metricsAddr, traceFile string, metricsHold time.Duration) error {
	sched := clock.New()
	b := busPkg.New(sched, busPkg.WithName("bench"))
	b.Instrument(tel)
	victimECU := ecu.New("victim", sched, b.Connect("victim"))
	victimECU.Instrument(tel)
	victimECU.HandleAll(func(busPkg.Message) {})

	port := b.Connect("bitfuzzer")
	bf := core.NewBitFuzzer(sched, port, core.BitFuzzConfig{
		Seed:     seed,
		Corpus:   corpus,
		FlipBits: flipBits,
		Interval: interval,
	})

	var obs *observatory.Observatory
	if tel != nil && metricsAddr != "" {
		obs = observatory.New(observatory.Config{Telemetry: tel})
	}
	stopServing, err := serveObservatory(logger, obs, metricsAddr, false)
	if err != nil {
		return err
	}
	defer stopServing()

	bf.Start()
	// Malicious hardware that ignores fault confinement resets itself.
	sched.Every(25*time.Millisecond, port.ResetErrors)
	sched.RunUntil(sched.Now() + dur)
	bf.Stop()

	if err := finishTelemetry(ctx, logger, tel, traceFile, metricsHold); err != nil {
		return err
	}

	st := bf.Stats()
	fmt.Printf("bit-level fuzzing for %v: %d injected, %d error frames, %d still-valid, %d rejected\n",
		sched.Now(), st.Injected, st.ErrorFrames, st.Delivered, st.Rejected)
	tec, rec := victimECU.Port().ErrorCounters()
	fmt.Printf("victim node: state %v (TEC %d, REC %d); bus corrupted-frame count %d\n",
		victimECU.Port().State(), tec, rec, b.Stats().FramesCorrupted)
	return nil
}

// serveObservatory starts the campaign HTTP endpoint when an address is
// given, mounting the observatory routes on top of the telemetry ones. The
// returned function drains the server gracefully; it is always safe to
// call.
func serveObservatory(logger *slog.Logger, obs *observatory.Observatory, addr string, pprofOn bool) (func(), error) {
	if obs == nil || addr == "" {
		return func() {}, nil
	}
	h := obs.Handler(observatory.HandlerConfig{Pprof: pprofOn})
	srv, bound, err := telemetry.ServeHandler(addr, h)
	if err != nil {
		return nil, fmt.Errorf("metrics endpoint: %w", err)
	}
	routes := "/campaign.json /events /fuzz.json /metrics /metrics.json /trace.json /healthz"
	if pprofOn {
		routes += " /debug/pprof/"
	}
	logger.Info("metrics endpoint up", "addr", bound, "routes", routes)
	return func() { telemetry.Shutdown(srv, time.Second) }, nil
}

// finishTelemetry writes the Chrome trace file if requested and holds the
// metrics endpoint open for scraping after the virtual run ends; SIGINT
// (via ctx) ends the hold early.
func finishTelemetry(ctx context.Context, logger *slog.Logger, tel *telemetry.Telemetry, traceFile string, hold time.Duration) error {
	if tel == nil {
		return nil
	}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return err
		}
		if err := tel.Trc().WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		logger.Info("trace written", "file", traceFile, "events", tel.Trc().Len())
	}
	if hold > 0 {
		logger.Info("holding metrics endpoint", "for", hold)
		telemetry.Hold(ctx, hold)
	}
	return nil
}
