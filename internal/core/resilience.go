package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/clock"
	"repro/internal/oracle"
	"repro/internal/retry"
	"repro/internal/telemetry"
)

// Campaign resilience: the graceful-degradation policy that keeps a fuzzing
// run alive while the fault injector (internal/faults) is tearing the system
// under test apart. Transient send rejections are retried with virtual-time
// backoff instead of being dropped, and a watchdog detects a dead bus — no
// delivered progress through the fuzzer's port within a window — and ends
// the run with a classified finding. Without a policy the campaign behaves
// exactly as before (and the hot path pays a single nil check).

// ErrRetryExhausted marks a transmission abandoned after the retry budget
// was spent on transient rejections. classifySendError gives it its own
// cause rather than "other".
var ErrRetryExhausted = errors.New("core: send retry budget exhausted")

// Resilience configures the campaign's self-healing behaviour.
type Resilience struct {
	// RetryMax bounds retransmission attempts per frame on transient send
	// errors (queue-full, bus-off). Zero disables retrying.
	RetryMax int
	// RetryBackoff is the virtual-time pause before the first retry; it
	// doubles on each further attempt.
	RetryBackoff time.Duration
	// WatchdogWindow is the progress deadline: if the fuzzer's port neither
	// transmits nor receives a delivered frame for a full window, the
	// watchdog fires. Zero disables the watchdog.
	WatchdogWindow time.Duration
}

// DefaultResilience returns the policy used by canfuzz -recover: three
// retries from 1 ms backoff (enough to span an ISO 11898-1 bus-off
// recovery) and a 250 ms dead-bus watchdog.
func DefaultResilience() Resilience {
	return Resilience{
		RetryMax:       3,
		RetryBackoff:   time.Millisecond,
		WatchdogWindow: 250 * time.Millisecond,
	}
}

// WithResilience installs a resilience policy on the campaign.
func WithResilience(r Resilience) Option {
	return func(c *Campaign) { c.resilience = &r }
}

// resState is the live resilience machinery attached to a running campaign.
type resState struct {
	Resilience

	// Pending retransmission.
	pending      can.Frame
	pendingValid bool
	attempts     int
	pausedUntil  time.Duration

	// Watchdog progress tracking.
	lastProgress uint64
	wdTimer      *clock.Timer

	// Graceful-degradation counters, surfaced in Report.Resilience.
	retries          uint64
	retriesExhausted uint64
	watchdogFires    uint64
}

// clearPending abandons the retransmission state.
func (r *resState) clearPending() {
	r.pending = can.Frame{}
	r.pendingValid = false
	r.attempts = 0
	r.pausedUntil = 0
}

// backoff returns the pause before the attempt just recorded (doubling:
// RetryBackoff, 2×, 4×...). The schedule is the shared retry.Policy with
// no cap and no jitter: virtual-time retries must stay a pure function of
// the campaign seed, and RetryMax bounds growth long before saturation.
func (r *resState) backoff() time.Duration {
	return retry.Policy{Base: r.RetryBackoff}.Delay(r.attempts, nil)
}

// transientSendError reports whether a Port.Send rejection is worth
// retrying: the queue may drain (queue-full) or the node may rejoin the bus
// (bus-off under auto-recovery). A detached port needs outside intervention.
func transientSendError(err error) bool {
	return errors.Is(err, bus.ErrTxQueueFull) || errors.Is(err, bus.ErrBusOff)
}

// progress is the watchdog's liveness measure: frames the fuzzer's port put
// on or took off the wire. Both directions count — a transmit-only view
// would false-alarm a healthy listener, a receive-only view a healthy
// sender on an otherwise quiet bus.
func (c *Campaign) progress() uint64 {
	st := c.port.Stats()
	return st.TxFrames + st.RxFrames
}

// startWatchdog arms the dead-bus watchdog. Called from Start.
func (c *Campaign) startWatchdog() {
	if c.res == nil || c.res.WatchdogWindow <= 0 || c.res.wdTimer != nil {
		return
	}
	c.res.lastProgress = c.progress()
	c.res.wdTimer = c.sched.Every(c.res.WatchdogWindow, c.watchdogCheck)
}

// stopWatchdog disarms the watchdog. Called from Stop.
func (c *Campaign) stopWatchdog() {
	if c.res != nil && c.res.wdTimer != nil {
		c.res.wdTimer.Stop()
		c.res.wdTimer = nil
	}
}

// watchdogCheck fires every window: if the port made no progress since the
// previous check the bus is considered dead: the campaign records a
// classified watchdog finding and stops — the fix for campaigns that
// previously spun ErrBusOff until the deadline.
func (c *Campaign) watchdogCheck() {
	cur := c.progress()
	if cur != c.res.lastProgress {
		c.res.lastProgress = cur
		return
	}
	c.res.watchdogFires++
	if c.tel != nil {
		c.tel.Reg().Counter("campaign_watchdog_fires_total",
			"Dead-bus watchdog firings (no port progress within the window).").Inc()
		c.tel.Emit(telemetry.Event{
			At: c.sched.Now(), Kind: telemetry.EvFault,
			Actor: "campaign", Name: "watchdog-fire",
			Detail: fmt.Sprintf("no bus progress within %v", c.res.WatchdogWindow),
		})
	}
	c.report(oracle.Verdict{
		Time:   c.sched.Now(),
		Oracle: "watchdog",
		Detail: fmt.Sprintf("bus dead: no progress within %v", c.res.WatchdogWindow),
	})
	if c.running {
		c.Stop()
	}
}

// noteRetry accounts one scheduled retransmission.
func (c *Campaign) noteRetry() {
	c.res.retries++
	if c.tel != nil {
		c.tel.Reg().Counter("campaign_retries_total",
			"Retransmissions scheduled for transient send rejections.").Inc()
	}
}

// ResilienceReport summarises the graceful-degradation counters of a run.
type ResilienceReport struct {
	// Retries counts retransmissions scheduled on transient send errors.
	Retries uint64 `json:"retries"`
	// RetriesExhausted counts frames abandoned after the retry budget.
	RetriesExhausted uint64 `json:"retriesExhausted"`
	// WatchdogFires counts dead-bus detections.
	WatchdogFires uint64 `json:"watchdogFires"`
	// PortBusOffs and PortRecoveries count the fuzzer port's bus-off
	// entries and ISO 11898-1 rejoins during the run.
	PortBusOffs    uint64 `json:"portBusOffs"`
	PortRecoveries uint64 `json:"portRecoveries"`
}
