package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/bcm"
	"repro/internal/can"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/guided"
	"repro/internal/signal"
	"repro/internal/target"
	"repro/internal/telemetry"
)

// fleetLoad is a workload driven through fleet.Run: one worker (one
// simulation goroutine) recycling worlds through a WorldPool, over fixed
// batches of trials whose seeds fleet.Run derives from each batch's base
// seed.
type fleetLoad struct {
	spec        target.Spec
	cfg         core.Config
	maxPerTrial time.Duration
	// live builds every world with the observability plane canfuzz
	// -mode guided -metrics attaches: a telemetry instance and the shared
	// introspection plane.
	live bool
}

// fleetRig is one set-up instance of a fleetLoad: its world pool plus the
// wrappers the run installs around the public calls.
type fleetRig struct {
	load *fleetLoad
	pool *fleet.WorldPool
	intr *guided.Introspection
	// telemetryOff builds the worlds without telemetry (the ablation).
	telemetryOff bool
	tr           *tracer // nil on untraced runs

	// Per-world handles of the world the worker is running, set by the
	// factory (one worker runs one world at a time).
	tel   *telemetry.Telemetry
	stats core.CorpusStats
	flush func(*tracer)

	walls     []float64 // per-trial wall time, ms
	trialT0   time.Time
	layerData fleetLayerData
}

// fleetLayerData is what the traced run reads per trial beside spans.
type fleetLayerData struct {
	trials, unlocks        int
	frames, unlockFrames   uint64
	unlockVirtual          time.Duration
	corpusSum, noveltyHits uint64
	traceEvents            uint64
}

func (l *fleetLoad) newRig(tr *tracer, telemetryOff bool) *fleetRig {
	r := &fleetRig{load: l, pool: &fleet.WorldPool{}, tr: tr, telemetryOff: telemetryOff}
	if l.live {
		r.intr = guided.NewIntrospection()
	}
	return r
}

// build is the TargetFactory: target.Build exactly as canfuzz calls it,
// plus, on a traced run, the build span, the frame-source adapter and a
// timing wrapper around World.Reset.
func (r *fleetRig) build(ts fleet.TrialSpec) (*fleet.World, error) {
	cfg := r.load.cfg
	cfg.Seed = ts.Seed
	var o target.Options
	if r.load.live {
		if !r.telemetryOff {
			o.Telemetry = telemetry.New(0)
		}
		o.Introspection = r.intr
	}
	var t0 int64
	if r.tr != nil {
		t0 = r.tr.now()
	}
	b, err := target.Build(r.load.spec, cfg, o)
	if err != nil {
		return nil, err
	}
	w := b.World
	r.tel = o.Telemetry
	r.stats, _ = w.Campaign.FrameSource().(core.CorpusStats)
	if tr := r.tr; tr != nil {
		tr.span("target.build", t0, tr.now(), false)
		r.flush = instrument(w.Campaign)
		if inner := w.Reset; inner != nil {
			w.Reset = func(ts fleet.TrialSpec) error {
				s := tr.now()
				err := inner(ts)
				tr.span("fleet.reset", s, tr.now(), false)
				return err
			}
		}
	}
	return w, nil
}

// coldFactory builds worlds like build but without any wrapper, for the
// cold-path reference trials.
func (r *fleetRig) coldFactory(ts fleet.TrialSpec) (*fleet.World, error) {
	cfg := r.load.cfg
	cfg.Seed = ts.Seed
	var o target.Options
	if r.load.live {
		o.Telemetry = telemetry.New(0)
		o.Introspection = guided.NewIntrospection()
	}
	b, err := target.Build(r.load.spec, cfg, o)
	if err != nil {
		return nil, err
	}
	return b.World, nil
}

func (r *fleetRig) takeWalls() []float64 {
	w := r.walls
	r.walls = nil
	return w
}

func (r *fleetRig) close() error { return nil }

func (r *fleetRig) clearStats() {
	r.walls, r.layerData = nil, fleetLayerData{}
	if r.tr != nil {
		r.tr.reset()
	}
}

// fleet.Observer: per-trial wall time on every run, spans on traced runs.

func (r *fleetRig) CampaignStarted(fleet.Config, int) {}
func (r *fleetRig) CampaignDone(*fleet.Report)        {}

func (r *fleetRig) TrialStarted(fleet.TrialSpec) {
	r.trialT0 = time.Now()
	if r.tr != nil {
		r.tr.beginTrial(int64(r.trialT0.Sub(r.tr.epoch)))
	}
}

func (r *fleetRig) TrialFinished(res fleet.TrialResult) {
	end := time.Now()
	r.walls = append(r.walls, ms(end.Sub(r.trialT0)))
	if r.tr == nil {
		return
	}
	d := &r.layerData
	d.trials++
	d.frames += res.FramesSent
	if res.Status == fleet.StatusFinding {
		d.unlocks++
		d.unlockFrames += res.FramesSent
	}
	d.corpusSum += uint64(len(res.Corpus))
	if r.stats != nil {
		d.noveltyHits += r.stats.NoveltyHits()
	}
	if r.tel != nil {
		d.traceEvents += r.tel.Tracer.Total()
	}
	if r.flush != nil {
		r.flush(r.tr)
	}
	r.tr.endTrial(int64(end.Sub(r.tr.epoch)))
}

// runBatch runs one batch of trials through fleet.Run.
func (r *fleetRig) runBatch(baseSeed int64, trials int) (*fleet.Report, error) {
	return fleet.Run(fleet.Config{
		Trials:      trials,
		Workers:     1,
		BaseSeed:    baseSeed,
		MaxPerTrial: r.load.maxPerTrial,
		Observer:    r,
		Pool:        r.pool,
	}, r.build)
}

// round runs every batch once, in the given order, calling between after
// each batch outside the timed windows. It returns the summed batch wall
// time plus the reports indexed by batch.
func (r *fleetRig) round(seeds []int64, perBatch int, order []int, between func()) (time.Duration, [][]byte, error) {
	reps := make([]*fleet.Report, len(seeds))
	var wall time.Duration
	for _, b := range order {
		start := time.Now()
		rep, err := r.runBatch(seeds[b], perBatch)
		wall += time.Since(start)
		if err != nil {
			return 0, nil, fmt.Errorf("batch %d: %w", b, err)
		}
		reps[b] = rep
		between()
	}
	out := make([][]byte, len(reps))
	for i, rep := range reps {
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			return 0, nil, err
		}
		out[i] = buf.Bytes()
	}
	return wall, out, nil
}

// checkFleetReport applies the output checks that hold whatever the RNG
// stream: every trial ended in a finding or a timeout, and every finding's
// last trigger frame is a BCM unlock command the configured check accepts.
// It returns the number of failed checks with a description of the first.
func checkFleetReport(rep *fleet.Report, check bcm.CheckMode) (int, string) {
	failed, first := 0, ""
	fail := func(format string, args ...any) {
		if failed == 0 {
			first = fmt.Sprintf(format, args...)
		}
		failed++
	}
	for _, tr := range rep.Results {
		switch tr.Status {
		case fleet.StatusTimeout:
		case fleet.StatusFinding:
			n := len(tr.TriggerFrames)
			if n == 0 {
				fail("trial %d: finding without trigger frames", tr.Trial)
				continue
			}
			f, err := core.ParseCorpusFrame(tr.TriggerFrames[n-1])
			if err != nil {
				fail("trial %d: trigger frame: %v", tr.Trial, err)
				continue
			}
			if !unlockCommand(f, check) {
				fail("trial %d: finding %q triggered by %s, not an unlock command under %q",
					tr.Trial, tr.Oracle, tr.TriggerFrames[n-1], target.CheckModeName(check))
			}
		default:
			fail("trial %d ended %s: %s%s", tr.Trial, tr.Status, tr.PanicValue, tr.Err)
		}
	}
	return failed, first
}

// unlockCommand reports whether f is a body command the BCM would act on
// as an unlock under the given parser strictness.
func unlockCommand(f can.Frame, check bcm.CheckMode) bool {
	if f.ID != signal.IDBodyCommand || f.Remote || f.Len < 1 || f.Data[0] != signal.CmdUnlock {
		return false
	}
	const commandLen, sourceByte = 7, 0x5F
	switch check {
	case bcm.CheckByteAndLength:
		return f.Len == commandLen
	case bcm.CheckTwoBytes:
		return f.Len == commandLen && f.Data[1] == sourceByte
	case bcm.CheckAuthenticated:
		return f.Len == commandLen && f.Data[6] == signal.CommandAuthCode(f.Data[:6])
	}
	return true
}

// coldMatches re-runs a trial through fleet.RunTrial (always a freshly
// built world) and compares it with the result the reuse path produced.
func (r *fleetRig) coldMatches(rep *fleet.Report, index int) error {
	got := rep.Results[index]
	cold := fleet.RunTrial(fleet.TrialSpec{Index: got.Trial, Seed: got.Seed},
		fleet.Config{MaxPerTrial: r.load.maxPerTrial}, r.coldFactory)
	a, err := json.Marshal(got)
	if err != nil {
		return err
	}
	b, err := json.Marshal(cold)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("trial %d (seed %d): reused world gave %s, cold world %s", got.Trial, got.Seed, a, b)
	}
	return nil
}
