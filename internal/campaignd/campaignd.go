package campaignd

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"slices"
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
	// table (wrong trial index, seed or status) — a client bug, never accepted.
	ErrBadResult = errors.New("campaignd: result does not match trial")
)

// DefaultLeaseTTL is the lease deadline granted to workers; heartbeats
// extend it by the same amount.
const DefaultLeaseTTL = 10 * time.Second

// redispatch is the backoff policy for re-dispatching expired leases:
// capped exponential with jitter, so a crash-looping worker fleet does not
// hammer one doomed trial in lockstep.
var redispatch = retry.Policy{
	Base:   250 * time.Millisecond,
	Cap:    5 * time.Second,
	Jitter: 0.5,
}

// Config assembles a Coordinator.
type Config struct {
	// Spec describes the campaign to shard (required). Its BaseSeed also
	// seeds the redispatch jitter (content determinism never depends on it).
	Spec CampaignSpec
	// LeaseTTL is the lease deadline (default DefaultLeaseTTL).
	LeaseTTL time.Duration
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
// in-process fleet.Run produces. It is a plain state machine and not safe
// for concurrent use: campsrv makes every call under its server lock.
//
// Dispatch hands out the lowest pending trial whose backoff has passed.
// No call walks every trial: a pending trial is either never dispatched,
// at or above the cursor next, or reclaimed from an expired lease and
// waiting in retry, always below next. So the lowest dispatchable trial is
// the first available retry entry, else next. inflight and retry hold
// trial indices in ascending order; inflight has one entry per busy
// worker.
type Coordinator struct {
	spec     CampaignSpec
	ttl      time.Duration
	sink     *observatory.Sink
	progress *fleet.Progress
	log      *slog.Logger
	now      func() time.Time // wall clock; a test seam

	trials     []trial
	next       int   // lowest never-dispatched trial
	inflight   []int // leased trials
	retry      []int // reclaimed trials waiting out their backoff
	done       int
	resumed    int // completed trials inherited from the journal
	nextLease  uint64
	duplicates int
	expiries   int
	rng        *rand.Rand
	report     *fleet.Report
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
	specJSON, err := cfg.Spec.Canonical()
	if err != nil {
		return nil, fmt.Errorf("campaignd: marshal spec: %w", err)
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	c := &Coordinator{
		spec:     cfg.Spec,
		ttl:      cfg.LeaseTTL,
		sink:     cfg.Sink,
		progress: cfg.Progress,
		log:      cfg.Logger,
		now:      time.Now,
		trials:   make([]trial, cfg.Spec.Trials),
		rng:      rand.New(faults.SeedPCG(new(rand.PCG), cfg.Spec.BaseSeed)),
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
			if res.Seed != c.trials[i].seed || !ranStatus(res.Status) {
				return nil, fmt.Errorf("campaignd: resumed trial %d has seed %d and status %q, spec derives seed %d",
					i, res.Seed, res.Status, c.trials[i].seed)
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
	c.maybeFinish()
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
// it a single-threaded state machine and trivially crash-consistent: the
// only durable state is the journal.
func (c *Coordinator) AcquireLease(worker string) Lease {
	now := c.now()
	c.reclaimExpired(now)
	if c.done == len(c.trials) {
		return Lease{Status: LeaseDone}
	}
	i, nextAvail := c.dispatchable(now)
	if i < 0 {
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
	tr := &c.trials[i]
	c.nextLease++
	tr.state = stateLeased
	tr.leaseID = c.nextLease
	tr.worker = worker
	tr.expiry = now.Add(c.ttl)
	tr.attempts++
	c.inflight = insertIndex(c.inflight, i)
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

// dispatchable takes the lowest pending trial whose backoff has passed off
// its list and returns it, or -1 and the earliest time a reclaimed trial
// becomes available (zero when none waits).
func (c *Coordinator) dispatchable(now time.Time) (int, time.Time) {
	var nextAvail time.Time
	for k, i := range c.retry {
		at := c.trials[i].availableAt
		if !at.After(now) {
			c.retry = slices.Delete(c.retry, k, k+1)
			return i, time.Time{}
		}
		if nextAvail.IsZero() || at.Before(nextAvail) {
			nextAvail = at
		}
	}
	for c.next < len(c.trials) && c.trials[c.next].state == stateDone {
		c.next++
	}
	if c.next == len(c.trials) {
		return -1, nextAvail
	}
	c.next++
	return c.next - 1, time.Time{}
}

// Heartbeat extends the lease deadline. ErrLeaseGone tells the worker its
// lease expired (the trial may be re-running elsewhere); the worker keeps
// computing and submits anyway — a correct result is accepted from anyone
// first, content being identical by construction.
func (c *Coordinator) Heartbeat(leaseID uint64) error {
	now := c.now()
	c.reclaimExpired(now)
	for _, i := range c.inflight {
		if tr := &c.trials[i]; tr.leaseID == leaseID {
			tr.expiry = now.Add(c.ttl)
			return nil
		}
	}
	return ErrLeaseGone
}

// ranStatus reports whether a trial that ran can end in status: any fleet
// status but skipped, which only a never-dispatched trial gets.
func ranStatus(status string) bool {
	switch status {
	case fleet.StatusFinding, fleet.StatusTimeout, fleet.StatusStalled, fleet.StatusPanic, fleet.StatusError:
		return true
	}
	return false
}

// Submit accepts a completed trial. The lease ID is advisory: a stale
// lease does not reject a correct result (the race of a slow worker
// against its replacement must not lose work), but a result whose index,
// seed or status (see ranStatus) contradicts the shard table is refused,
// and a duplicate for a completed trial is counted and dropped.
func (c *Coordinator) Submit(index int, leaseID uint64, res fleet.TrialResult) error {
	if index < 0 || index >= len(c.trials) {
		return fmt.Errorf("%w: trial %d out of range", ErrBadResult, index)
	}
	tr := &c.trials[index]
	if res.Trial != index || res.Seed != tr.seed || !ranStatus(res.Status) {
		return fmt.Errorf("%w: got trial=%d seed=%d status=%q, lease table says trial=%d seed=%d",
			ErrBadResult, res.Trial, res.Seed, res.Status, index, tr.seed)
	}
	switch {
	case tr.state == stateDone:
		c.duplicates++
		return ErrTrialDone
	case tr.state == stateLeased:
		c.inflight = removeIndex(c.inflight, index)
	case tr.attempts > 0:
		c.retry = removeIndex(c.retry, index)
	}
	_ = leaseID // advisory; see doc comment
	tr.state = stateDone
	tr.result = res
	c.done++
	c.progress.TrialFinished(res)
	c.journalResult(res)
	c.maybeFinish()
	return nil
}

// insertIndex adds trial i to the ascending index list.
func insertIndex(list []int, i int) []int {
	k, _ := slices.BinarySearch(list, i)
	return slices.Insert(list, k, i)
}

// removeIndex drops trial i from the ascending index list.
func removeIndex(list []int, i int) []int {
	if k, ok := slices.BinarySearch(list, i); ok {
		return slices.Delete(list, k, k+1)
	}
	return list
}

// journalResult streams an accepted result into the journal as one
// write: the events an in-process fleet emits
// (observatory.AppendTrialEvents, then the checkpoint when due) with the
// trial_result line that makes the journal self-sufficient for resume
// between them, so a checkpoint never runs ahead of a durable result. The
// completed count includes resumed trials.
func (c *Coordinator) journalResult(res fleet.TrialResult) {
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

// reclaimExpired returns expired leases to the pending pool with a
// capped, jittered backoff before re-dispatch. It visits the leases in
// trial-index order, the order the jitter draws are made in.
func (c *Coordinator) reclaimExpired(now time.Time) {
	kept := c.inflight[:0]
	for _, i := range c.inflight {
		tr := &c.trials[i]
		if tr.expiry.After(now) {
			kept = append(kept, i)
			continue
		}
		tr.state = statePending
		tr.availableAt = now.Add(redispatch.Delay(tr.attempts, c.rng))
		c.retry = insertIndex(c.retry, i)
		c.expiries++
		if c.log != nil {
			c.log.Warn("lease expired", "trial", i, "lease", tr.leaseID,
				"worker", tr.worker, "attempt", tr.attempts,
				"redispatch_in", tr.availableAt.Sub(now).Round(time.Millisecond))
		}
	}
	c.inflight = kept
}

// maybeFinish builds the final report once every trial is done.
func (c *Coordinator) maybeFinish() {
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
}

// Leased counts the currently leased trials after reclaiming expired
// leases — the live in-flight width a fair-share scheduler caps per
// campaign (campsrv's max-inflight).
func (c *Coordinator) Leased() int {
	c.reclaimExpired(c.now())
	return len(c.inflight)
}

// Report returns the final report: nil until every trial is done.
func (c *Coordinator) Report() *fleet.Report { return c.report }

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
	leased := c.Leased()
	return Status{
		Trials: len(c.trials), Done: c.done, Leased: leased,
		Pending: len(c.trials) - c.done - leased, Resumed: c.resumed,
		Expiries: c.expiries, Duplicates: c.duplicates,
		Complete: c.report != nil,
	}
}
