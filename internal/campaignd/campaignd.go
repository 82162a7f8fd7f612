package campaignd

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/observatory"
	"repro/internal/retry"
)

// Lease / submission errors surfaced over HTTP.
var (
	// ErrLeaseGone means the heartbeated lease is no longer current: it
	// expired and the trial was re-dispatched (or already completed).
	ErrLeaseGone = errors.New("campaignd: lease gone")
	// ErrTrialDone means a submission arrived for an already-completed
	// trial. Harmless — the late worker computed the same bytes — but
	// reported so it can account the duplicate.
	ErrTrialDone = errors.New("campaignd: trial already completed")
	// ErrBadResult means a submission's content contradicts the lease
	// table (wrong trial index or seed) — a client bug, never accepted.
	ErrBadResult = errors.New("campaignd: result does not match trial")
)

// DefaultLeaseTTL is the lease deadline granted to workers; heartbeats
// extend it by the same amount.
const DefaultLeaseTTL = 10 * time.Second

// DefaultRedispatch is the backoff policy for re-dispatching expired
// leases: capped exponential with jitter, so a crash-looping worker fleet
// does not hammer one doomed trial in lockstep.
var DefaultRedispatch = retry.Policy{
	Base:   250 * time.Millisecond,
	Cap:    5 * time.Second,
	Jitter: 0.5,
}

// Config assembles a Coordinator.
type Config struct {
	// Spec describes the campaign to shard (required).
	Spec CampaignSpec
	// LeaseTTL is the lease deadline (default DefaultLeaseTTL).
	LeaseTTL time.Duration
	// Redispatch is the expired-lease backoff (default DefaultRedispatch).
	Redispatch retry.Policy
	// Sink, when non-nil, is the journal: every accepted result streams
	// into it as observatory events, durable enough to resume from.
	Sink *observatory.Sink
	// Progress, when non-nil, receives live per-trial updates — wire the
	// observatory's tracker here and /campaign.json works unchanged.
	Progress *fleet.Progress
	// Logger, when non-nil, receives lease-churn lines.
	Logger *slog.Logger
	// Resumed, when non-nil, continues a journal (OpenJournal) that
	// already holds the campaign_start line: its trials are born completed
	// and their events are not re-emitted. Nil starts a fresh journal.
	Resumed map[int]fleet.TrialResult
	// Seed seeds the redispatch jitter RNG (content determinism never
	// depends on it; 0 is fine).
	Seed int64
}

// trialState is the lease state machine: pending -> leased -> done, with
// leased -> pending on expiry.
type trialState int

const (
	statePending trialState = iota
	stateLeased
	stateDone
)

// trial is the lease book's record of one shard.
type trial struct {
	state   trialState
	seed    int64
	leaseID uint64    // current lease (stateLeased)
	worker  string    // holder of the current lease
	expiry  time.Time // lease deadline, extended by heartbeats
	// attempts counts dispatches; availableAt gates re-dispatch after an
	// expiry (capped exponential backoff with jitter).
	attempts    int
	availableAt time.Time
	result      fleet.TrialResult // stateDone
}

// Coordinator is one campaign's lease book: it shards the campaign into
// leases and folds accepted results into the same deterministic report an
// in-process fleet.Run produces. All methods are safe for concurrent use;
// campsrv schedules many of them behind one HTTP API.
type Coordinator struct {
	spec     CampaignSpec
	ttl      time.Duration
	policy   retry.Policy
	sink     *observatory.Sink
	progress *fleet.Progress
	log      *slog.Logger

	mu          sync.Mutex
	trials      []trial
	done        int
	resumed     int // completed trials inherited from the journal
	nextLease   uint64
	duplicates  int
	expiries    int
	rng         *rand.Rand
	report      *fleet.Report
	finishedSig chan struct{}
}

// New builds a lease book for the spec, journalling to cfg.Sink. With
// cfg.Resumed it continues a crashed campaign: recovered trials start
// completed, everything else (including leases that were in flight when
// the previous server died) is re-dispatched from scratch — an expired
// lease and a dead server look identical to a worker.
func New(cfg Config) (*Coordinator, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	specJSON, err := cfg.Spec.marshal()
	if err != nil {
		return nil, fmt.Errorf("campaignd: marshal spec: %w", err)
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.Redispatch.Base <= 0 {
		cfg.Redispatch = DefaultRedispatch
	}
	c := &Coordinator{
		spec:        cfg.Spec,
		ttl:         cfg.LeaseTTL,
		policy:      cfg.Redispatch,
		sink:        cfg.Sink,
		progress:    cfg.Progress,
		log:         cfg.Logger,
		trials:      make([]trial, cfg.Spec.Trials),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		finishedSig: make(chan struct{}),
	}
	c.progress.CampaignStarted(cfg.Spec.FleetConfig(), 0)
	for i := range c.trials {
		c.trials[i].seed = faults.DeriveSeed(cfg.Spec.BaseSeed, i)
	}
	if cfg.Resumed == nil {
		// Fresh campaign: open the journal with the spec line.
		c.sink.Emit(observatory.Event{
			Type: observatory.EventCampaignStart, Trial: -1, Seq: 0, Raw: specJSON,
		})
	} else {
		for i, res := range cfg.Resumed {
			if i < 0 || i >= len(c.trials) {
				return nil, fmt.Errorf("campaignd: resumed trial %d out of range [0,%d)", i, len(c.trials))
			}
			if res.Seed != c.trials[i].seed {
				return nil, fmt.Errorf("campaignd: resumed trial %d has seed %d, spec derives %d",
					i, res.Seed, c.trials[i].seed)
			}
			c.trials[i].state = stateDone
			c.trials[i].result = res
			c.done++
			// The journal already holds these trials' events; only the live
			// progress view needs to relearn them.
			c.progress.TrialStarted(fleet.TrialSpec{Index: i, Seed: res.Seed})
			c.progress.TrialFinished(res)
		}
		c.resumed = c.done
		if c.log != nil {
			c.log.Info("campaign resumed from journal", "completed", c.done, "remaining", len(c.trials)-c.done)
		}
	}
	c.mu.Lock()
	c.maybeFinishLocked()
	c.mu.Unlock()
	return c, nil
}

// Lease statuses.
const (
	// LeaseGranted carries a trial assignment.
	LeaseGranted = "lease"
	// LeaseWait means nothing is dispatchable right now (all remaining
	// trials are leased out or in redispatch backoff) — retry after
	// RetryAfter.
	LeaseWait = "wait"
	// LeaseDone means no work is left: from a lease book, its campaign is
	// complete; from the campsrv scheduler, the server is shutting down and
	// the worker should exit.
	LeaseDone = "done"
)

// Lease is a lease decision.
type Lease struct {
	// Status is LeaseGranted, LeaseWait or LeaseDone.
	Status string `json:"status"`
	// Campaign identifies which campaign the trial belongs to; the campsrv
	// scheduler stamps it on every grant.
	Campaign string `json:"campaign,omitempty"`
	// Trial and Seed identify the assigned shard (LeaseGranted).
	Trial int   `json:"trial"`
	Seed  int64 `json:"seed"`
	// ID is the lease handle for heartbeats and the result submission.
	ID uint64 `json:"leaseId"`
	// TTL is the lease deadline; heartbeat at least once per TTL.
	TTL time.Duration `json:"leaseTtlMs"`
	// RetryAfter is the suggested poll delay on LeaseWait.
	RetryAfter time.Duration `json:"retryAfterMs"`
}

// AcquireLease hands the worker the lowest dispatchable trial, or tells it
// to wait or that the campaign is done. Expired leases are reclaimed
// lazily here — the lease book needs no background goroutine, which keeps
// its state machine single-threaded under the mutex and trivially
// crash-consistent: the only durable state is the journal.
func (c *Coordinator) AcquireLease(worker string) Lease {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimExpiredLocked(now)
	if c.done == len(c.trials) {
		return Lease{Status: LeaseDone}
	}
	var nextAvail time.Time
	for i := range c.trials {
		tr := &c.trials[i]
		if tr.state != statePending {
			continue
		}
		if tr.availableAt.After(now) {
			if nextAvail.IsZero() || tr.availableAt.Before(nextAvail) {
				nextAvail = tr.availableAt
			}
			continue
		}
		c.nextLease++
		tr.state = stateLeased
		tr.leaseID = c.nextLease
		tr.worker = worker
		tr.expiry = now.Add(c.ttl)
		tr.attempts++
		if tr.attempts == 1 {
			// First dispatch: journal the trial_start. Re-dispatches do not
			// repeat it — the sorted event log of a crash-free distributed
			// run stays identical to the in-process observatory's.
			c.progress.TrialStarted(fleet.TrialSpec{Index: i, Seed: tr.seed})
			c.sink.Emit(observatory.TrialStart(i, tr.seed))
		}
		if c.log != nil {
			c.log.Info("lease granted", "trial", i, "lease", tr.leaseID,
				"worker", worker, "attempt", tr.attempts)
		}
		return Lease{Status: LeaseGranted, Trial: i, Seed: tr.seed, ID: tr.leaseID, TTL: c.ttl}
	}
	wait := c.ttl / 4
	if !nextAvail.IsZero() {
		if until := nextAvail.Sub(now); until < wait {
			wait = until
		}
	}
	if wait < 50*time.Millisecond {
		wait = 50 * time.Millisecond
	}
	return Lease{Status: LeaseWait, RetryAfter: wait}
}

// Heartbeat extends the lease deadline. ErrLeaseGone tells the worker its
// lease expired (the trial may be re-running elsewhere); the worker keeps
// computing and submits anyway — a correct result is accepted from anyone
// first, content being identical by construction.
func (c *Coordinator) Heartbeat(leaseID uint64) error {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimExpiredLocked(now)
	for i := range c.trials {
		tr := &c.trials[i]
		if tr.state == stateLeased && tr.leaseID == leaseID {
			tr.expiry = now.Add(c.ttl)
			return nil
		}
	}
	return ErrLeaseGone
}

// Submit accepts a completed trial. The lease ID is advisory: a stale
// lease does not reject a correct result (the race of a slow worker
// against its replacement must not lose work), but a result whose index or
// seed contradicts the shard table is refused, and a duplicate for a
// completed trial is counted and dropped.
func (c *Coordinator) Submit(index int, leaseID uint64, res fleet.TrialResult) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if index < 0 || index >= len(c.trials) {
		return fmt.Errorf("%w: trial %d out of range", ErrBadResult, index)
	}
	tr := &c.trials[index]
	if res.Trial != index || res.Seed != tr.seed {
		return fmt.Errorf("%w: got trial=%d seed=%d, lease table says trial=%d seed=%d",
			ErrBadResult, res.Trial, res.Seed, index, tr.seed)
	}
	if tr.state == stateDone {
		c.duplicates++
		return ErrTrialDone
	}
	_ = leaseID // advisory; see doc comment
	tr.state = stateDone
	tr.result = res
	c.done++
	c.progress.TrialFinished(res)
	c.journalResultLocked(res)
	c.maybeFinishLocked()
	return nil
}

// journalResultLocked streams an accepted result into the journal as one
// write: the events an in-process fleet emits
// (observatory.AppendTrialEvents, then the checkpoint when due) with the
// trial_result line that makes the journal self-sufficient for resume
// between them, so a checkpoint never runs ahead of a durable result. The
// completed count includes resumed trials.
func (c *Coordinator) journalResultLocked(res fleet.TrialResult) {
	if c.sink == nil {
		return
	}
	var buf [5]observatory.Event
	evs, seq := observatory.AppendTrialEvents(buf[:0], res)
	if raw, err := json.Marshal(res); err == nil {
		evs = append(evs, observatory.Event{
			Type: observatory.EventTrialResult, Trial: res.Trial, Seq: seq, Raw: raw,
		})
	}
	if cp, due := observatory.Checkpoint(c.done, len(c.trials)); due {
		evs = append(evs, cp)
	}
	c.sink.EmitBatch(evs)
}

// reclaimExpiredLocked returns expired leases to the pending pool with a
// capped, jittered backoff before re-dispatch.
func (c *Coordinator) reclaimExpiredLocked(now time.Time) {
	for i := range c.trials {
		tr := &c.trials[i]
		if tr.state != stateLeased || tr.expiry.After(now) {
			continue
		}
		tr.state = statePending
		tr.availableAt = now.Add(c.policy.Delay(tr.attempts, c.rng))
		c.expiries++
		if c.log != nil {
			c.log.Warn("lease expired", "trial", i, "lease", tr.leaseID,
				"worker", tr.worker, "attempt", tr.attempts,
				"redispatch_in", tr.availableAt.Sub(now).Round(time.Millisecond))
		}
	}
}

// maybeFinishLocked builds the final report once every trial is done.
func (c *Coordinator) maybeFinishLocked() {
	if c.report != nil || c.done != len(c.trials) {
		return
	}
	results := make([]fleet.TrialResult, len(c.trials))
	for i := range c.trials {
		results[i] = c.trials[i].result
	}
	rep := fleet.NewReport(c.spec.BaseSeed, time.Duration(c.spec.MaxPerTrialNanos), results)
	c.report = rep
	c.progress.CampaignDone(rep)
	close(c.finishedSig)
}

// Done is closed once the campaign completes.
func (c *Coordinator) Done() <-chan struct{} { return c.finishedSig }

// Finished reports completion without blocking.
func (c *Coordinator) Finished() bool {
	select {
	case <-c.finishedSig:
		return true
	default:
		return false
	}
}

// Leased counts the currently leased trials after reclaiming expired
// leases — the live in-flight width a fair-share scheduler caps per
// campaign (campsrv's max-inflight).
func (c *Coordinator) Leased() int {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimExpiredLocked(now)
	n := 0
	for i := range c.trials {
		if c.trials[i].state == stateLeased {
			n++
		}
	}
	return n
}

// Report returns the final report (nil until Done closes).
func (c *Coordinator) Report() *fleet.Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.report
}

// Status is the lease book's live view, served in campsrv's
// GET /campaigns/{id} detail.
type Status struct {
	Trials     int  `json:"trials"`
	Done       int  `json:"done"`
	Leased     int  `json:"leased"`
	Pending    int  `json:"pending"`
	Resumed    int  `json:"resumed"`
	Expiries   int  `json:"leaseExpiries"`
	Duplicates int  `json:"duplicateResults"`
	Complete   bool `json:"complete"`
}

// Snapshot samples the lease book state.
func (c *Coordinator) Snapshot() Status {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimExpiredLocked(now)
	s := Status{
		Trials: len(c.trials), Done: c.done, Resumed: c.resumed,
		Expiries: c.expiries, Duplicates: c.duplicates,
		Complete: c.report != nil,
	}
	for i := range c.trials {
		switch c.trials[i].state {
		case stateLeased:
			s.Leased++
		case statePending:
			s.Pending++
		}
	}
	return s
}
