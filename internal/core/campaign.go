package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/clock"
	"repro/internal/oracle"
	"repro/internal/telemetry"
)

// Finding is one oracle firing with the surrounding campaign context — the
// paper's "if a system failure occurs the conditions that caused it are
// recorded".
type Finding struct {
	// Verdict is the oracle report.
	Verdict oracle.Verdict
	// FramesSent is the campaign frame count at firing time.
	FramesSent uint64
	// Elapsed is the campaign runtime at firing time.
	Elapsed time.Duration
	// Recent is the window of fuzz frames transmitted before the firing,
	// oldest first.
	Recent []can.Frame
}

// FrameSource supplies campaign frames from outside the built-in
// generator — the hook ModeGuided rides on. Next is called once per timing
// tick; returning ok=false skips the tick without transmitting (the source
// is exhausted or waiting for feedback). Observe receives every bus message
// the campaign's port sees while running, in delivery order, so the source
// can close the loop between what it sent and what the target did.
//
// A Campaign drives its FrameSource strictly from the single-threaded
// scheduler, so implementations need no locking.
type FrameSource interface {
	Next() (can.Frame, bool)
	Observe(m bus.Message)
}

// Option configures a Campaign.
type Option func(*Campaign)

// WithFrameSource installs an external frame source that overrides the
// built-in generator (see FrameSource). The generator still validates the
// Config and serves as the mode/interval record for BuildReport.
func WithFrameSource(src FrameSource) Option {
	return func(c *Campaign) { c.src = src }
}

// WithStopOnFinding halts transmission at the first finding.
func WithStopOnFinding() Option {
	return func(c *Campaign) { c.stopOnFinding = true }
}

// WithMaxFrames bounds the number of frames transmitted.
func WithMaxFrames(n uint64) Option {
	return func(c *Campaign) { c.maxFrames = n }
}

// WithFaultCounts installs a snapshot function (typically
// faults.Injector.Counts) whose injected-fault counts by kind are embedded
// in BuildReport, making chaos campaigns self-describing.
func WithFaultCounts(fn func() map[string]uint64) Option {
	return func(c *Campaign) { c.faultCounts = fn }
}

// WithTelemetry attaches the campaign to a telemetry plane: frame and
// error counters, coverage and integrity gauges, and trace events for
// generator progress and oracle firings. Oracles added via
// AddOracle are wrapped with oracle.Instrumented. A nil argument leaves
// the campaign uninstrumented (the default, with zero overhead).
func WithTelemetry(t *telemetry.Telemetry) Option {
	return func(c *Campaign) { c.tel = t }
}

// genBatchEvery is the generator checkpoint period: one EvGenBatch trace
// event, a gauge refresh and a registry publication per this many
// transmitted frames.
const genBatchEvery = 256

// recentWindow is how many recently sent frames each finding records.
const recentWindow = 16

// Send-error causes, as reported by SendErrorsByCause and the campaign
// report. The paper's automation loop needs to distinguish "the fuzzer
// outpaced the bus" (queue-full) from "the fuzzer knocked itself off the
// bus" (bus-off) — they demand opposite remediations.
const (
	CauseQueueFull      = "queue-full"
	CauseBusOff         = "bus-off"
	CauseDetached       = "detached"
	CauseRetryExhausted = "retry-exhausted"
	CauseOther          = "other"
)

// Cause indices into sendErrorCauses and the per-cause counter arrays. The
// send path classifies to a small integer so error accounting indexes two
// fixed arrays instead of hashing a string into two maps per rejection.
const (
	causeIdxQueueFull = iota
	causeIdxBusOff
	causeIdxDetached
	causeIdxRetryExhausted
	causeIdxOther
	numSendErrorCauses
)

// sendErrorCauses lists every cause label classifySendErrorIndex can pick,
// ordered to match the causeIdx constants, for eager counter registration.
var sendErrorCauses = []string{
	CauseQueueFull, CauseBusOff, CauseDetached,
	CauseRetryExhausted, CauseOther,
}

// classifySendErrorIndex maps a send-path error to its cause index. The
// resilience sentinel is checked first: a frame abandoned after exhausted
// retries must not be re-bucketed by whatever transient error happened to
// be last.
func classifySendErrorIndex(err error) int {
	switch {
	case errors.Is(err, ErrRetryExhausted):
		return causeIdxRetryExhausted
	case errors.Is(err, bus.ErrTxQueueFull):
		return causeIdxQueueFull
	case errors.Is(err, bus.ErrBusOff):
		return causeIdxBusOff
	case errors.Is(err, bus.ErrDetached):
		return causeIdxDetached
	default:
		return causeIdxOther
	}
}

// Campaign drives one fuzz test: a generator paced by the timing loop,
// transmitting through a bus port, with oracles watching the system under
// test. Create with NewCampaign, arm oracles with AddOracle, then either
// Start and drive the scheduler yourself or use RunFor/RunUntilFinding.
type Campaign struct {
	sched *clock.Scheduler
	port  *bus.Port
	gen   *Generator
	mon   *Monitor

	oracles []oracle.Oracle
	// timer is the pacing loop: a re-armable Periodic allocated once at
	// construction, so Start/Stop cycles (and pooled world reuse) never
	// allocate a timer or closure.
	timer *clock.Periodic

	// Configuration, fixed once the options have run.
	stopOnFinding bool
	resilience    *Resilience // nil: no policy
	onStop        func()
	maxFrames     uint64
	src           FrameSource
	// wallBudget bounds RunUntilFinding in wall-clock time (0 = unbounded).
	// See SetWallBudget.
	wallBudget time.Duration
	// faultCounts snapshots injected-fault counts for BuildReport.
	faultCounts func() map[string]uint64

	// Telemetry handles; nil (no-op) unless WithTelemetry was given.
	tel       *telemetry.Telemetry
	mSent     *telemetry.Counter
	mErrCause [numSendErrorCauses]*telemetry.Counter
	mFindings *telemetry.Counter
	gDistinct *telemetry.Gauge
	gByteMean *telemetry.Gauge

	// findings keeps its capacity across Reset, so a reset allocates
	// nothing.
	findings []Finding
	campaignRun
}

// campaignRun is the campaign's per-trial state. Reset assigns it whole,
// so a cold build (NewCampaign calls Reset) and a warm reset start
// identically.
type campaignRun struct {
	framesSent  uint64
	sendErrors  uint64
	errsByCause [numSendErrorCauses]uint64
	started     time.Duration
	running     bool
	// untilFinding is set by RunUntilFinding: the campaign then stops at
	// its next finding, as if built WithStopOnFinding.
	untilFinding bool
	// wallExpired records that the wall budget, not the virtual deadline,
	// ended the last RunUntilFinding.
	wallExpired bool

	// res is the resilience policy in force; nil (the default) means no
	// retries and no watchdog, with zero overhead on the send path. When
	// set it points at resBuf, so arming a policy allocates nothing.
	res    *resState
	resBuf resState
}

// NewCampaign builds a campaign. The port is the fuzzer's bus attachment
// (e.g. the OBD connector); the campaign takes over its receiver to feed
// the monitor and oracles.
func NewCampaign(sched *clock.Scheduler, port *bus.Port, cfg Config, opts ...Option) (*Campaign, error) {
	gen, err := NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	c := &Campaign{
		sched: sched,
		port:  port,
		gen:   gen,
	}
	for _, o := range opts {
		o(c)
	}
	c.timer = sched.NewPeriodic(gen.cfg.Interval, c.sendOne)
	c.mon = NewMonitor(recentWindow)
	if c.tel != nil {
		reg := c.tel.Registry
		c.mSent = reg.Counter("campaign_frames_sent_total", "Fuzz frames transmitted by the campaign.")
		c.mFindings = reg.Counter("campaign_findings_total", "Oracle firings recorded by the campaign.")
		c.gDistinct = reg.Gauge("campaign_distinct_ids", "Distinct identifiers fuzzed (coverage numerator).")
		c.gByteMean = reg.Gauge("campaign_sent_byte_mean", "Mean payload byte value of sent frames (Fig 5 integrity; ~127.5 when healthy).")
		for i, cause := range sendErrorCauses {
			c.mErrCause[i] = reg.Counter("campaign_send_errors_total",
				"Rejected transmissions, by cause.", telemetry.Label{Key: "cause", Value: cause})
		}
	}
	port.SetReceiver(c.observe)
	c.Reset(gen.cfg.Seed)
	return c, nil
}

// Generator returns the campaign's frame generator.
func (c *Campaign) Generator() *Generator { return c.gen }

// Monitor returns the campaign's traffic monitor.
func (c *Campaign) Monitor() *Monitor { return c.mon }

// SetFrameSource installs (or clears, with nil) an external frame source
// after construction — the minimizer swaps playback sources between
// candidate executions this way. See WithFrameSource.
func (c *Campaign) SetFrameSource(src FrameSource) { c.src = src }

// SetStopHook installs fn to run at the end of every Stop (nil clears
// it). Guided-engine builders use it to publish the engine's exact final
// introspection counters, whatever wraps the frame source.
func (c *Campaign) SetStopHook(fn func()) { c.onStop = fn }

// FrameSource returns the installed external frame source, or nil.
func (c *Campaign) FrameSource() FrameSource { return c.src }

// FramesSent returns the number of fuzz frames transmitted so far.
func (c *Campaign) FramesSent() uint64 { return c.framesSent }

// SendErrors returns the number of rejected transmissions (queue full,
// bus-off...).
func (c *Campaign) SendErrors() uint64 { return c.sendErrors }

// SendErrorsByCause returns a copy of the rejected-transmission counts
// keyed by cause (CauseQueueFull, CauseBusOff, CauseDetached, CauseOther).
func (c *Campaign) SendErrorsByCause() map[string]uint64 {
	out := make(map[string]uint64, numSendErrorCauses)
	for i, cause := range sendErrorCauses {
		if c.errsByCause[i] != 0 {
			out[cause] = c.errsByCause[i]
		}
	}
	return out
}

// Findings returns a copy of the findings list.
func (c *Campaign) Findings() []Finding {
	out := make([]Finding, len(c.findings))
	copy(out, c.findings)
	return out
}

// Running reports whether the transmission loop is armed.
func (c *Campaign) Running() bool { return c.running }

// AddOracle arms an oracle. Oracles added while running start immediately.
// On an instrumented campaign the oracle is wrapped with
// oracle.Instrumented so its observation and verdict counts are exported.
func (c *Campaign) AddOracle(o oracle.Oracle) {
	if c.tel != nil {
		o = oracle.Instrumented(o, c.tel)
	}
	c.oracles = append(c.oracles, o)
	if c.running {
		o.Start(c.sched, c.report)
	}
}

// Start arms the timing loop and oracles. It is idempotent.
func (c *Campaign) Start() {
	if c.running {
		return
	}
	c.running = true
	c.started = c.sched.Now()
	// The run's metric writes and events all come from this scheduler
	// goroutine, so the plane can batch its publications until Stop.
	c.tel.Buffer()
	for _, o := range c.oracles {
		o.Start(c.sched, c.report)
	}
	c.timer.Start()
	c.startWatchdog()
}

// Stop halts transmission and disarms oracles.
func (c *Campaign) Stop() {
	if !c.running {
		return
	}
	c.running = false
	if c.tel != nil {
		// Final checkpoint so a post-run scrape or trace sees the end state
		// even when the campaign halts inside a batch.
		c.tel.Advance(c.sched.Now())
		c.gDistinct.Set(float64(c.mon.DistinctIDsSent()))
		c.gByteMean.Set(c.mon.SentMeans().OverallMean())
		c.tel.Emit(telemetry.Event{
			At: c.sched.Now(), Kind: telemetry.EvGenBatch,
			Actor: "campaign", Name: "gen-batch", N: c.framesSent,
		})
		c.tel.Flush()
	}
	c.timer.Stop()
	c.stopWatchdog()
	for _, o := range c.oracles {
		o.Stop()
	}
	if c.onStop != nil {
		c.onStop()
	}
}

// Reset returns the campaign to its as-built state under a new seed;
// NewCampaign runs the same code. The wiring — port receiver, oracles,
// hooks, frame source, telemetry handles — and the configuration
// survive; the run state does not: the generator stream restarts from
// seed, the monitor statistics and findings are cleared, the error
// accounting zeroes, and the resilience policy is the configured one (in
// particular, the default watchdog RunUntilFinding arms is discarded, so
// a reused campaign re-derives it exactly like a fresh one). Under world
// reuse the scheduler was reset first; the pacing timer and watchdog
// handles from the previous life are already invalidated by its
// generation bump and are simply dropped. Steady state allocates nothing.
func (c *Campaign) Reset(seed int64) {
	c.timer.Stop()
	c.gen.Reset(seed)
	c.mon.Reset()
	c.findings = c.findings[:0]
	c.campaignRun = campaignRun{}
	if c.resilience != nil {
		c.armResilience(*c.resilience)
	}
}

// armResilience installs r as the run's resilience policy.
func (c *Campaign) armResilience(r Resilience) {
	c.resBuf = resState{Resilience: r}
	c.res = &c.resBuf
}

// RunFor starts the campaign and drives the scheduler for the given
// virtual duration, then stops.
func (c *Campaign) RunFor(d time.Duration) {
	c.Start()
	c.sched.RunUntil(c.sched.Now() + d)
	c.Stop()
}

// SetWallBudget bounds the next RunUntilFinding in *wall-clock* time: a
// world whose event loop stops advancing virtual time (events rescheduling
// each other at the same instant, a runaway feedback loop) would otherwise
// spin below the virtual deadline forever. When the budget elapses the run
// stops and WallExpired reports true — the local analogue of a distributed
// lease expiring on a hung worker. Zero (the default) disables the bound.
// The check is cooperative, amortized over scheduler steps, so it cannot
// interrupt a single event callback that never returns.
func (c *Campaign) SetWallBudget(d time.Duration) { c.wallBudget = d }

// WallExpired reports whether the last RunUntilFinding was stopped by the
// wall-clock budget rather than a finding or the virtual deadline.
func (c *Campaign) WallExpired() bool { return c.wallExpired }

// wallCheckEvery is how many scheduler steps pass between wall-budget
// clock reads in RunUntilFinding (a power of two; one time.Now per ~1k
// steps is noise next to the event dispatch itself).
const wallCheckEvery = 1024

// RunUntilFinding starts the campaign and drives the scheduler until the
// first finding or the deadline. It reports the finding and whether one
// occurred. When no resilience policy is configured a default dead-bus
// watchdog is armed, so a campaign that knocks its own node bus-off mid-run
// ends promptly with a classified "watchdog" finding instead of spinning
// ErrBusOff until maxDuration.
func (c *Campaign) RunUntilFinding(maxDuration time.Duration) (Finding, bool) {
	c.untilFinding = true
	if c.res == nil {
		w := DefaultResilience().WatchdogWindow
		if iv := c.gen.cfg.Interval; w < 4*iv {
			w = 4 * iv // never let a slow sender look like a dead bus
		}
		c.armResilience(Resilience{WatchdogWindow: w})
	}
	c.wallExpired = false
	var wallDeadline time.Time
	if c.wallBudget > 0 {
		wallDeadline = time.Now().Add(c.wallBudget)
	}
	before := len(c.findings)
	c.Start()
	deadline := c.sched.Now() + maxDuration
	for steps := 0; c.running && c.sched.Now() < deadline && len(c.findings) == before; {
		if !c.sched.Step() {
			break
		}
		if steps++; c.wallBudget > 0 && steps&(wallCheckEvery-1) == 0 && time.Now().After(wallDeadline) {
			c.wallExpired = true
			break
		}
	}
	c.Stop()
	if len(c.findings) > before {
		return c.findings[len(c.findings)-1], true
	}
	return Finding{}, false
}

// sendOne is the timing-loop body: generate (or pick up a pending
// retransmission), transmit, account. With a resilience policy, transient
// rejections pause the loop for a doubling backoff and retry the same frame
// instead of abandoning it.
func (c *Campaign) sendOne() {
	if c.maxFrames > 0 && c.framesSent >= c.maxFrames {
		c.Stop()
		return
	}
	res := c.res
	if res != nil && c.sched.Now() < res.pausedUntil {
		return // backing off; keep the generator stream untouched
	}
	var f can.Frame
	switch {
	case res != nil && res.pendingValid:
		f = res.pending
	case c.src != nil:
		var ok bool
		if f, ok = c.src.Next(); !ok {
			return // source has nothing this tick; send nothing
		}
	default:
		f = c.gen.Next()
	}
	if err := c.port.Send(f); err != nil {
		if res != nil && res.RetryMax > 0 && transientSendError(err) {
			if res.attempts < res.RetryMax {
				res.pending, res.pendingValid = f, true
				res.attempts++
				res.pausedUntil = c.sched.Now() + res.backoff()
				c.noteRetry()
				return
			}
			res.clearPending()
			res.retriesExhausted++
			c.noteSendError(fmt.Errorf("%w (%d attempts, last: %v)",
				ErrRetryExhausted, res.RetryMax, err))
			return
		}
		c.noteSendError(err)
		return
	}
	if res != nil && res.pendingValid {
		res.clearPending()
	}
	c.framesSent++
	c.mon.NoteSent(f)
	c.mSent.Inc()
	if c.tel != nil && c.framesSent%genBatchEvery == 0 {
		now := c.sched.Now()
		c.tel.Advance(now)
		c.gDistinct.Set(float64(c.mon.DistinctIDsSent()))
		c.gByteMean.Set(c.mon.SentMeans().OverallMean())
		c.tel.Emit(telemetry.Event{
			At: now, Kind: telemetry.EvGenBatch,
			Actor: "campaign", Name: "gen-batch", N: c.framesSent,
		})
		c.tel.Publish()
	}
}

// noteSendError accounts one abandoned transmission by cause.
func (c *Campaign) noteSendError(err error) {
	c.sendErrors++
	idx := classifySendErrorIndex(err)
	c.errsByCause[idx]++
	if c.tel != nil {
		c.mErrCause[idx].Inc()
	}
}

// observe feeds bus traffic to the monitor and oracles.
func (c *Campaign) observe(m bus.Message) {
	if !c.running {
		return
	}
	if c.src != nil {
		c.src.Observe(m)
	}
	for _, o := range c.oracles {
		o.Observe(m)
	}
}

// report handles an oracle verdict.
func (c *Campaign) report(v oracle.Verdict) {
	f := Finding{
		Verdict:    v,
		FramesSent: c.framesSent,
		Elapsed:    c.sched.Now() - c.started,
		Recent:     c.mon.Recent(),
	}
	c.findings = append(c.findings, f)
	c.mFindings.Inc()
	if c.tel != nil {
		c.tel.Advance(c.sched.Now())
		c.tel.Emit(telemetry.Event{
			At: c.sched.Now(), Kind: telemetry.EvOracle,
			Actor: "campaign", Name: v.Oracle, Detail: v.Detail, N: c.framesSent,
		})
	}
	if c.stopOnFinding || c.untilFinding {
		c.Stop()
	}
}
