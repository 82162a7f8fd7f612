// Package fleet is the parallel multi-world campaign orchestrator: it runs
// N independent fuzzing trials, each in its own freshly constructed
// virtual world (scheduler, bus, target ECUs, campaign), across a bounded
// worker pool, and folds the outcomes into one deterministic Report.
//
// The paper's quantitative result (Table V) is a *distribution* of
// time-to-unlock over repeated runs. Each run is a fully isolated
// discrete-event simulation sharing no state with its siblings, which
// makes the workload embarrassingly parallel; what needs care is keeping
// the aggregate reproducible. The fleet guarantees that by construction:
//
//   - Per-trial seeds come from the base seed via the splitmix64 stream
//     (faults.DeriveSeed), so trial i's world is a pure function of
//     (BaseSeed, i) — worker count and interleaving cannot touch it.
//   - Results are collected into a slice indexed by trial and aggregated
//     sequentially in index order, never in completion order.
//   - No wall-clock quantity enters the Report (progress logging, which
//     does report trials/sec, goes to the logger only).
//
// A panicking trial is contained by its worker and becomes a classified
// TrialResult (StatusPanic) instead of a dead fleet; fail-fast mode stops
// dispatching new trials once any trial confirms a finding.
package fleet

import (
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/faults"
)

// World is one fully isolated trial universe: a private scheduler and a
// campaign wired to a target built on it. The factory owns construction;
// the fleet only runs the campaign and reads its counters.
type World struct {
	// Sched is the world's private virtual clock.
	Sched *clock.Scheduler
	// Campaign is the armed fuzzer attached to the world's target.
	Campaign *core.Campaign
	// Corpus, when non-nil, snapshots the trial's evolved corpus after the
	// run (guided mode: guided.Engine.CorpusFrames). The fleet records it in
	// the TrialResult and merges all trials' corpora in index order.
	Corpus func() []string
	// Reset, when non-nil, re-initializes the world in place for the given
	// trial — scheduler back to time zero, target to its as-built state,
	// campaign re-seeded — so a fleet worker can recycle it for its next
	// trial instead of rebuilding through the factory. Reset-then-run must
	// be bit-for-bit identical to fresh-build-then-run at the same spec
	// (the reuse differential tests pin this); a Reset that returns an
	// error or panics makes the worker discard the world and fall back to
	// the factory, so a failed reset costs one rebuild, never a wrong
	// result. Nil disables reuse for this world.
	Reset func(spec TrialSpec) error
}

// WorldPool retains reset-capable worlds across trials and Run calls, so
// back-to-back fleets over the same target configuration (benchmark
// iterations) and a campaign-service worker executing one leased trial at
// a time (WorldPool.RunTrial) skip world construction entirely. Every
// world ever put in one pool must come from the same factory and
// configuration, because the pool hands any retained world to any worker;
// worlds without a Reset hook are never pooled. Safe for concurrent use;
// the zero value and a nil pool are both valid and empty.
type WorldPool struct {
	mu     sync.Mutex
	worlds []*World
}

// get pops a pooled world, or returns nil when the pool is empty or nil.
func (p *WorldPool) get() *World {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.worlds)
	if n == 0 {
		return nil
	}
	w := p.worlds[n-1]
	p.worlds[n-1] = nil
	p.worlds = p.worlds[:n-1]
	return w
}

// put returns a world to the pool. Nil pools and nil worlds are ignored.
func (p *WorldPool) put(w *World) {
	if p == nil || w == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.worlds = append(p.worlds, w)
}

// Len reports how many worlds are currently pooled.
func (p *WorldPool) Len() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.worlds)
}

// TrialSpec identifies one trial for a TargetFactory.
type TrialSpec struct {
	// Index is the trial index in [0, Trials).
	Index int
	// Seed is the derived per-trial seed, faults.DeriveSeed(BaseSeed,
	// Index). Factories normally seed their campaign config with it;
	// factories reproducing a legacy seed scheme may ignore it.
	Seed int64
}

// TargetFactory builds the world for one trial. It must return a fresh,
// fully independent world on every call: no shared scheduler, bus, ECU or
// RNG state, because trials run concurrently.
type TargetFactory func(spec TrialSpec) (*World, error)

// Observer receives fleet lifecycle callbacks while the campaign runs —
// the hook the observatory layer builds on. TrialStarted and TrialFinished are invoked from
// worker goroutines, concurrently; implementations must be safe for
// concurrent use and must not block, or they stall the pool. A nil
// Observer in the Config disables all callbacks at the cost of one branch
// per trial.
//
// Callbacks carry only per-trial data that is a pure function of
// (BaseSeed, trial index), so an observer that records content — not
// arrival order — stays deterministic across worker counts.
type Observer interface {
	// CampaignStarted fires once before the first trial is dispatched,
	// with the validated configuration and the effective pool width.
	CampaignStarted(cfg Config, workers int)
	// TrialStarted fires when a worker picks up the trial.
	TrialStarted(spec TrialSpec)
	// TrialFinished fires after the trial's result is recorded.
	TrialFinished(res TrialResult)
	// CampaignDone fires once, after aggregation, with the final report.
	CampaignDone(rep *Report)
}

// Config tunes a fleet run.
type Config struct {
	// Trials is the number of independent campaigns (required, >= 1).
	Trials int
	// Workers bounds the pool; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// BaseSeed roots the per-trial seed stream.
	BaseSeed int64
	// MaxPerTrial is the per-trial virtual deadline (required, > 0).
	MaxPerTrial time.Duration
	// TrialTimeout is the per-trial *wall-clock* budget (0 = none): a trial
	// whose world stops advancing virtual time — a runaway same-instant
	// event loop — is cancelled cooperatively and classified StatusStalled
	// instead of pinning its worker forever. It is the local analogue of a
	// distributed lease expiry, and like one it trades nothing for
	// determinism: a stalled world never produced a result to begin with.
	TrialTimeout time.Duration
	// FailFast stops dispatching new trials after the first trial that
	// confirms a finding. In-flight trials still complete and are
	// reported; undispatched ones are recorded as StatusSkipped. Which
	// trials were in flight depends on scheduling, so fail-fast runs trade
	// the byte-identical-report guarantee for early exit.
	FailFast bool
	// Logger, when non-nil, receives progress lines.
	Logger *slog.Logger
	// LogEvery emits one progress line per this many completed trials
	// (default 10 when a Logger is set).
	LogEvery int
	// Observer, when non-nil, receives lifecycle callbacks (trial start
	// and end, campaign start and end) from the worker goroutines.
	Observer Observer
	// DisableReuse forces every trial through the TargetFactory even when
	// worlds advertise a Reset hook — the cold path, kept as the
	// correctness oracle the reuse differential tests compare against.
	DisableReuse bool
	// Pool, when non-nil, seeds each worker's world cache from previously
	// pooled worlds and returns the caches there after the run, extending
	// reuse across Run calls. Ignored when DisableReuse is set. All runs
	// sharing a pool must use the same factory and target configuration.
	Pool *WorldPool
}

// Validation errors.
var (
	ErrNoTrials    = errors.New("fleet: Trials must be >= 1")
	ErrNoDeadline  = errors.New("fleet: MaxPerTrial must be > 0")
	ErrNilFactory  = errors.New("fleet: TargetFactory is nil")
	errNilWorld    = errors.New("fleet: factory returned a nil world")
	errWorldFields = errors.New("fleet: world is missing Sched or Campaign")
)

// Run executes the fleet and returns its deterministic report.
func Run(cfg Config, factory TargetFactory) (*Report, error) {
	if cfg.Trials < 1 {
		return nil, ErrNoTrials
	}
	if cfg.MaxPerTrial <= 0 {
		return nil, ErrNoDeadline
	}
	if factory == nil {
		return nil, ErrNilFactory
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Trials {
		workers = cfg.Trials
	}
	logEvery := cfg.LogEvery
	if logEvery <= 0 {
		logEvery = 10
	}

	results := make([]TrialResult, cfg.Trials)
	seeds := make([]int64, cfg.Trials)
	for i := range seeds {
		seeds[i] = faults.DeriveSeed(cfg.BaseSeed, i)
	}

	obs := cfg.Observer
	if obs != nil {
		obs.CampaignStarted(cfg, workers)
	}

	var (
		wg        sync.WaitGroup
		completed atomic.Int64
		findings  atomic.Int64
		stop      = make(chan struct{})
		stopOnce  sync.Once
		start     = time.Now()
	)
	indices := make(chan int)
	go func() {
		defer close(indices)
		for i := 0; i < cfg.Trials; i++ {
			select {
			case indices <- i:
			case <-stop:
				// Fail-fast: everything not yet dispatched is skipped.
				// Only this goroutine ever touches these slots — workers
				// never received the indices.
				for j := i; j < cfg.Trials; j++ {
					results[j] = TrialResult{Trial: j, Seed: seeds[j], Status: StatusSkipped}
				}
				return
			}
		}
	}()

	reuse := !cfg.DisableReuse
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// cached is this worker's reusable world from its previous
			// trial (or the cross-run pool): reset in place and recycled
			// when it advertises Reset, discarded on any panic, error or
			// failed reset. Per-trial results stay a pure function of
			// (BaseSeed, index) because reset-then-run is pinned
			// bit-identical to fresh-build-then-run.
			var cached *World
			if reuse {
				cached = cfg.Pool.get()
				defer func() { cfg.Pool.put(cached) }()
			}
			for i := range indices {
				spec := TrialSpec{Index: i, Seed: seeds[i]}
				if obs != nil {
					obs.TrialStarted(spec)
				}
				res, keep := runTrial(spec, cfg, factory, cached)
				cached = nil
				if reuse {
					cached = keep
				}
				results[i] = res
				if obs != nil {
					obs.TrialFinished(res)
				}
				if res.Findings > 0 {
					findings.Add(int64(res.Findings))
					if cfg.FailFast {
						stopOnce.Do(func() { close(stop) })
					}
				}
				if n := completed.Add(1); cfg.Logger != nil && (n%int64(logEvery) == 0 || n == int64(cfg.Trials)) {
					elapsed := time.Since(start).Seconds()
					rate := float64(n)
					if elapsed > 0 {
						rate = float64(n) / elapsed
					}
					cfg.Logger.Info("fleet progress",
						"done", n, "total", cfg.Trials,
						"findings", findings.Load(),
						"trials_per_sec", fmt.Sprintf("%.1f", rate))
				}
			}
		}()
	}
	wg.Wait()

	rep := NewReport(cfg.BaseSeed, cfg.MaxPerTrial, results)
	rep.Workers = workers
	rep.FailFast = cfg.FailFast
	if obs != nil {
		obs.CampaignDone(rep)
	}
	return rep, nil
}

// RunTrial runs one trial exactly as a fleet worker would: on a pooled
// world reset in place when the pool holds one, through the factory
// otherwise, and parks the world again afterwards when it advertises
// Reset. Only cfg.MaxPerTrial (required) and cfg.TrialTimeout are
// consulted. As in Run, a reset that fails or panics sends the trial to
// the factory, and a world whose trial panicked is never parked. A
// campaignd worker executes every leased trial of a campaign through one
// pool, so it builds each campaign's world once and a trial's result is
// bit-for-bit the same whichever process ran it. On a nil pool every call
// takes the cold path.
func (p *WorldPool) RunTrial(spec TrialSpec, cfg Config, factory TargetFactory) TrialResult {
	res, keep := runTrial(spec, cfg, factory, p.get())
	p.put(keep)
	return res
}

// RunTrial builds and runs one trial on a fresh world: the cold path, kept
// as the correctness oracle the warm path (Run, WorldPool.RunTrial) is
// differentially tested against.
func RunTrial(spec TrialSpec, cfg Config, factory TargetFactory) TrialResult {
	return (*WorldPool)(nil).RunTrial(spec, cfg, factory)
}

// tryReset re-initializes a cached world for the next trial, containing
// any panic: a reset that fails in any way just sends the trial down the
// cold factory path.
func tryReset(w *World, spec TrialSpec) (ok bool) {
	if w.Reset == nil {
		return false
	}
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return w.Reset(spec) == nil
}

// runTrial runs one trial, recycling cached (reset in place) when
// possible and falling back to the factory otherwise. It returns the
// result plus the world to cache for the worker's next trial — nil when
// the world panicked (poisoned), errored, or does not support Reset.
//
// A panic anywhere inside — reset, factory or simulation — is contained
// and classified; the named return keeps the partial result fields
// gathered before the panic. Wall-clock phase durations (world build vs
// campaign run) are recorded on the result for the live progress view but
// excluded from its JSON, which must stay a pure function of the seed.
func runTrial(spec TrialSpec, cfg Config, factory TargetFactory, cached *World) (res TrialResult, keep *World) {
	res = TrialResult{Trial: spec.Index, Seed: spec.Seed}
	defer func() {
		if r := recover(); r != nil {
			res.Status = StatusPanic
			res.PanicValue = fmt.Sprint(r)
			keep = nil
		}
	}()
	w := cached
	if w != nil && !tryReset(w, spec) {
		w = nil
	}
	if w == nil {
		buildStart := time.Now()
		var err error
		w, err = factory(spec)
		res.BuildWall = time.Since(buildStart)
		if err != nil {
			res.Status = StatusError
			res.Err = err.Error()
			return res, nil
		}
		if w == nil {
			res.Status = StatusError
			res.Err = errNilWorld.Error()
			return res, nil
		}
		if w.Sched == nil || w.Campaign == nil {
			res.Status = StatusError
			res.Err = errWorldFields.Error()
			return res, nil
		}
	}
	// Unconditional so a pooled world never inherits a stale budget from a
	// previous run's configuration (zero disables the bound).
	w.Campaign.SetWallBudget(cfg.TrialTimeout)
	if w.Reset != nil {
		keep = w
	}
	runStart := time.Now()
	finding, ok := w.Campaign.RunUntilFinding(cfg.MaxPerTrial)
	res.RunWall = time.Since(runStart)
	res.VirtualElapsed = w.Sched.Now()
	if w.Corpus != nil {
		res.Corpus = w.Corpus()
	}
	res.FramesSent = w.Campaign.FramesSent()
	res.SendErrors = w.Campaign.SendErrors()
	if m := w.Campaign.SendErrorsByCause(); len(m) > 0 {
		res.SendErrorsByCause = m
	}
	res.Findings = len(w.Campaign.Findings())
	if !ok {
		if w.Campaign.WallExpired() {
			res.Status = StatusStalled
		} else {
			res.Status = StatusTimeout
		}
		return res, keep
	}
	res.Status = StatusFinding
	res.TimeToFinding = finding.Elapsed
	res.Oracle = finding.Verdict.Oracle
	res.Detail = finding.Verdict.Detail
	if n := len(finding.Recent); n > 0 {
		res.TriggerID = fmt.Sprintf("%03X", uint16(finding.Recent[n-1].ID))
		res.TriggerFrames = make([]string, 0, n)
		for _, f := range finding.Recent {
			res.TriggerFrames = append(res.TriggerFrames, core.FormatCorpusFrame(f))
		}
	}
	return res, keep
}
