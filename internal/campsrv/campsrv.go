// Package campsrv is the distributed campaign service behind canfuzzd: a
// long-lived server that accepts campaign submissions over HTTP, runs each
// one as its own crash-tolerant campaignd lease book, and multiplexes all
// of them over one shared, campaign-agnostic worker fleet.
//
// Clients POST a spec and get a campaign ID; workers lease (campaign,
// trial) pairs from a single endpoint; a weighted round-robin scheduler
// with per-campaign priorities and max-inflight caps decides whose trial
// the next free worker gets, so one huge campaign cannot starve small
// ones. A one-campaign distributed run is simply a service holding one
// campaign.
//
// Everything durable lives under one data directory:
//
//	<data>/index.json        campaign registry: id, state, priority, spec
//	<data>/<id>/events.jsonl per-campaign journal (campaignd format)
//
// A restarted server reopens every journal through campaignd.OpenJournal:
// it rebuilds every done campaign's report from its journal and re-opens
// a lease book for every interrupted one, and the per-campaign determinism
// guarantee — final report byte-identical to an in-process fleet.Run —
// survives any SIGKILL. DESIGN §12 documents the scheduler, the campaign
// state machine and the resume protocol.
package campsrv

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sync"
	"time"

	"repro/internal/campaignd"
	"repro/internal/findings"
	"repro/internal/fleet"
	"repro/internal/observatory"
	"repro/internal/telemetry"
)

// State is a campaign's lifecycle position. Transitions:
//
//	queued ──────▶ running ──▶ draining ──▶ done
//	   │              │
//	   └──────────────┴──▶ cancelled
//
// queued: accepted, waiting for a running slot (MaxActive). running: lease
// book open, trials dispatching. draining: every trial complete, journal
// being finalised (synced and closed). done: report available, immutable.
// cancelled: withdrawn by the operator; workers with leases in flight get
// 410 on submit and move on.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDraining  State = "draining"
	StateDone      State = "done"
	StateCancelled State = "cancelled"
)

// Request errors, mapped onto HTTP statuses by the handler.
var (
	// ErrNotFound means no campaign has the requested ID.
	ErrNotFound = errors.New("campsrv: no such campaign")
	// ErrGone means the campaign was cancelled: the resource is permanently
	// unavailable, not merely unknown.
	ErrGone = errors.New("campsrv: campaign cancelled")
	// ErrNotDone means the report was requested before the campaign
	// completed.
	ErrNotDone = errors.New("campsrv: campaign not complete")
	// ErrAlreadyDone means a cancel arrived after completion — there is
	// nothing left to withdraw.
	ErrAlreadyDone = errors.New("campsrv: campaign already complete")
	// ErrShutdown rejects new submissions while the server is draining.
	ErrShutdown = errors.New("campsrv: server shutting down")
)

// Submission is the POST /campaigns request body.
type Submission struct {
	// Spec is the complete campaign definition (required).
	Spec campaignd.CampaignSpec `json:"spec"`
	// Priority is the fair-share weight (default 1). Out of every
	// priority-sum lease grants under saturation, this campaign gets
	// Priority of them.
	Priority int `json:"priority,omitempty"`
	// MaxInflight caps the campaign's concurrently leased trials
	// (0 = unlimited) — a brake for campaigns whose worlds are expensive.
	MaxInflight int `json:"maxInflight,omitempty"`
}

// Config assembles a Server.
type Config struct {
	// DataDir is the durable root: index.json plus one journal directory
	// per campaign (required).
	DataDir string
	// Resume reloads an existing DataDir instead of initialising a fresh
	// one. Fresh start on a populated directory and resume on an empty one
	// are both hard errors: silently doing either would orphan or invent
	// campaign history.
	Resume bool
	// LeaseTTL is the worker lease deadline for every campaign (default
	// campaignd.DefaultLeaseTTL).
	LeaseTTL time.Duration
	// MaxActive caps concurrently running campaigns; submissions beyond it
	// queue until a slot frees (0 = unlimited).
	MaxActive int
	// Telemetry, when non-nil, receives the service metrics
	// (campaigns_active, campaigns_queued, trials_leased_total{campaign}).
	Telemetry *telemetry.Telemetry
	// Logger, when non-nil, receives lifecycle and lease-churn lines.
	Logger *slog.Logger
	// FindingsDB, when non-empty, is a findings database directory every
	// completed campaign's findings are merged into (see internal/findings
	// and cmd/canregress). Merges are idempotent, so re-running or resuming
	// campaigns never duplicates records.
	FindingsDB string
}

// campaign is the server's record of one submission, across every state.
type campaign struct {
	id          string
	seq         int
	state       State
	priority    int
	maxInflight int
	spec        campaignd.CampaignSpec
	specJSON    []byte // canonical bytes, byte-compared on resume

	// Live machinery (running/draining); nil otherwise. journal is the
	// open journal until one goroutine takes it under Server.mu to
	// finalise it; whoever takes it closes it.
	coord    *campaignd.Coordinator
	journal  *os.File
	sink     *observatory.Sink
	progress *fleet.Progress

	// Final output (done).
	reportJSON []byte
	failure    string // journal finalisation error, preserved in the index

	leased *telemetry.Counter // trials_leased_total{campaign="<id>"}
}

// Server is the multi-campaign scheduler. All exported methods are safe
// for concurrent use. Lock order is Server.mu before any lease book's
// internal mutex; lease books never call back into the server.
type Server struct {
	dataDir string
	ttl     time.Duration
	maxAct  int
	tel     *telemetry.Telemetry
	log     *slog.Logger
	fdb     *findings.DB // nil unless Config.FindingsDB was set

	activeGauge *telemetry.Gauge
	queuedGauge *telemetry.Gauge

	// finishing counts the finish calls in flight; Close waits for them.
	finishing sync.WaitGroup

	mu        sync.Mutex
	campaigns map[string]*campaign
	bySeq     []*campaign // submission order, for stable listings
	ring      []*campaign // running campaigns in WRR service order
	cur       int         // ring index currently being served
	credit    int         // grants left for ring[cur] before advancing
	nextSeq   int
	shutdown  bool
	closed    bool // Close has begun: no finish may start
}

// New builds the server, either initialising a fresh data directory or
// resuming an existing one (cfg.Resume). On resume, interrupted campaigns
// come back as live lease books seeded from their journals and completed
// ones get their reports rebuilt.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, errors.New("campsrv: Config.DataDir is required")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = campaignd.DefaultLeaseTTL
	}
	s := &Server{
		dataDir:   cfg.DataDir,
		ttl:       cfg.LeaseTTL,
		maxAct:    cfg.MaxActive,
		tel:       cfg.Telemetry,
		log:       cfg.Logger,
		campaigns: map[string]*campaign{},
		nextSeq:   1,
	}
	if cfg.FindingsDB != "" {
		fdb, err := findings.Open(cfg.FindingsDB)
		if err != nil {
			return nil, fmt.Errorf("campsrv: findings db: %w", err)
		}
		s.fdb = fdb
	}
	reg := cfg.Telemetry.Reg()
	s.activeGauge = reg.Gauge("campaigns_active", "campaigns currently running (lease book open)")
	s.queuedGauge = reg.Gauge("campaigns_queued", "campaigns waiting for a running slot")
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("campsrv: data dir: %w", err)
	}
	if cfg.Resume {
		if err := s.resume(); err != nil {
			return nil, err
		}
	} else {
		if _, err := os.Stat(s.indexPath()); err == nil {
			return nil, fmt.Errorf("campsrv: %s already holds campaign state; start with Resume to continue it", cfg.DataDir)
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("campsrv: data dir: %w", err)
		}
		s.mu.Lock()
		err := s.persistLocked()
		s.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	s.syncGauges()
	return s, nil
}

// Submit registers a campaign and starts it immediately if a running slot
// is free, queueing it otherwise. The returned view carries the assigned
// campaign ID.
func (s *Server) Submit(sub Submission) (CampaignView, error) {
	if err := sub.Spec.Validate(); err != nil {
		return CampaignView{}, err
	}
	if sub.Priority == 0 {
		sub.Priority = 1
	}
	if sub.Priority < 1 {
		return CampaignView{}, fmt.Errorf("campsrv: priority must be >= 1, got %d", sub.Priority)
	}
	if sub.MaxInflight < 0 {
		return CampaignView{}, fmt.Errorf("campsrv: maxInflight must be >= 0, got %d", sub.MaxInflight)
	}
	specJSON, err := sub.Spec.Canonical()
	if err != nil {
		return CampaignView{}, fmt.Errorf("campsrv: marshal spec: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shutdown {
		return CampaignView{}, ErrShutdown
	}
	c := &campaign{
		id:          fmt.Sprintf("c%04d", s.nextSeq),
		seq:         s.nextSeq,
		state:       StateQueued,
		priority:    sub.Priority,
		maxInflight: sub.MaxInflight,
		spec:        sub.Spec,
		specJSON:    specJSON,
	}
	s.nextSeq++
	s.campaigns[c.id] = c
	s.bySeq = append(s.bySeq, c)
	if s.slotFreeLocked() {
		if err := s.startLocked(c, nil, nil); err != nil {
			// The campaign cannot open its journal — refuse the submission
			// rather than park a campaign that can never run.
			delete(s.campaigns, c.id)
			s.bySeq = s.bySeq[:len(s.bySeq)-1]
			s.nextSeq--
			return CampaignView{}, err
		}
	}
	if err := s.persistLocked(); err != nil {
		return CampaignView{}, err
	}
	s.syncGaugesLocked()
	if s.log != nil {
		s.log.Info("campaign submitted", "campaign", c.id, "state", c.state,
			"target", c.spec.Target, "trials", c.spec.Trials,
			"priority", c.priority, "max_inflight", c.maxInflight)
	}
	return s.viewLocked(c), nil
}

// slotFreeLocked reports whether another campaign may enter running state.
func (s *Server) slotFreeLocked() bool {
	return s.maxAct <= 0 || len(s.ring) < s.maxAct
}

// startLocked opens the campaign's lease book and enters it into the
// scheduler ring. A fresh campaign passes a nil journal (one is created);
// a resumed one passes its reopened journal and the results recovered
// from it. The lease book owns the journal from here on.
func (s *Server) startLocked(c *campaign, journal *os.File, resumed map[int]fleet.TrialResult) error {
	if journal == nil {
		var err error
		if journal, err = s.createJournal(c); err != nil {
			return err
		}
	}
	sink := observatory.NewSink(journal)
	progress := fleet.NewProgress(nil)
	coord, err := campaignd.New(campaignd.Config{
		Spec:     c.spec,
		LeaseTTL: s.ttl,
		Sink:     sink,
		Progress: progress,
		Logger:   s.log,
		Resumed:  resumed,
		Seed:     c.spec.BaseSeed,
	})
	if err != nil {
		journal.Close()
		return err
	}
	c.journal, c.sink, c.progress, c.coord = journal, sink, progress, coord
	c.state = StateRunning
	c.leased = s.tel.Reg().Counter("trials_leased_total",
		"lease grants per campaign", telemetry.Label{Key: "campaign", Value: c.id})
	s.ring = append(s.ring, c)
	go func() {
		<-coord.Done()
		s.finish(c.id)
	}()
	if s.log != nil {
		s.log.Info("campaign running", "campaign", c.id, "trials", c.spec.Trials,
			"resumed", len(resumed))
	}
	return nil
}

// finish moves a completed campaign running -> draining -> done: the
// journal is synced and closed, the final report rendered, and a queued
// campaign promoted into the freed slot. It runs on the per-campaign
// watcher goroutine. Once Close has begun it does nothing: the campaign
// stays running on disk, and a resume finds its journal complete.
func (s *Server) finish(id string) {
	s.mu.Lock()
	c := s.campaigns[id]
	if c == nil || c.state != StateRunning || s.closed {
		s.mu.Unlock()
		return
	}
	s.finishing.Add(1)
	defer s.finishing.Done()
	c.state = StateDraining
	journal := c.journal
	c.journal = nil
	s.dropFromRingLocked(c)
	_ = s.persistLocked() // the draining mark is advisory; the journal is the truth
	s.mu.Unlock()

	// Finalise the journal outside the lock: sink errors are sticky, and a
	// journal that lost writes must be visible — a resume from it would
	// silently re-run trials.
	var failure string
	if err := c.sink.Close(); err != nil {
		failure = fmt.Sprintf("event log: %v", err)
	}
	if err := journal.Sync(); err != nil && failure == "" {
		failure = fmt.Sprintf("event log sync: %v", err)
	}
	if err := journal.Close(); err != nil && failure == "" {
		failure = fmt.Sprintf("event log close: %v", err)
	}
	rep := c.coord.Report()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil && failure == "" {
		failure = fmt.Sprintf("render report: %v", err)
	}
	// Completion hook: fold the campaign's findings into the regression
	// database. The DB serialises its own writes, so concurrent watcher
	// goroutines finishing at once are safe; a DB error must not lose the
	// campaign itself, so it is recorded as the failure note instead.
	if s.fdb != nil {
		if n, err := s.mergeFindings(c, rep); err != nil {
			if failure == "" {
				failure = fmt.Sprintf("findings db: %v", err)
			}
		} else if n > 0 && s.log != nil {
			s.log.Info("findings merged", "campaign", c.id, "new_records", n)
		}
	}

	s.mu.Lock()
	c.state = StateDone
	c.reportJSON = buf.Bytes()
	c.failure = failure
	if err := s.persistLocked(); err != nil && s.log != nil {
		s.log.Error("index write failed", "campaign", id, "err", err)
	}
	s.promoteLocked()
	s.syncGaugesLocked()
	s.mu.Unlock()
	if s.log != nil {
		st := c.coord.Snapshot()
		s.log.Info("campaign complete", "campaign", id, "trials", st.Trials,
			"findings", rep.FoundFindings, "lease_expiries", st.Expiries,
			"duplicate_results", st.Duplicates, "failure", failure)
	}
}

// mergeFindings folds a finished campaign's replayable findings into the
// findings database, stamped with the campaign ID as provenance.
func (s *Server) mergeFindings(c *campaign, rep *fleet.Report) (int, error) {
	cfg, err := c.spec.Config.ToConfig()
	if err != nil {
		return 0, fmt.Errorf("spec config: %w", err)
	}
	mode := c.spec.Config.Mode
	if mode == "" {
		mode = "random"
	}
	recs := findings.FromFleetReport(rep, findings.ContextFromCampaignSpec(c.spec), cfg, findings.Provenance{
		Source:   "campsrv",
		Campaign: c.id,
		Mode:     mode,
	})
	return s.fdb.MergeAll(recs)
}

// promoteLocked starts queued campaigns while running slots are free:
// highest priority first, submission order among equals.
func (s *Server) promoteLocked() {
	for s.slotFreeLocked() && !s.shutdown {
		var best *campaign
		for _, c := range s.bySeq {
			if c.state != StateQueued {
				continue
			}
			if best == nil || c.priority > best.priority {
				best = c
			}
		}
		if best == nil {
			return
		}
		if err := s.startLocked(best, nil, nil); err != nil {
			// A campaign whose journal cannot open would wedge the queue if
			// we retried it forever: cancel it and record why.
			best.state = StateCancelled
			best.failure = err.Error()
			if s.log != nil {
				s.log.Error("campaign failed to start", "campaign", best.id, "err", err)
			}
		}
		_ = s.persistLocked()
	}
}

// dropFromRingLocked removes a campaign from the scheduler ring, keeping
// the WRR cursor on the campaign it was serving.
func (s *Server) dropFromRingLocked(c *campaign) {
	for i, rc := range s.ring {
		if rc != c {
			continue
		}
		s.ring = append(s.ring[:i], s.ring[i+1:]...)
		if i < s.cur {
			s.cur--
		} else if i == s.cur {
			s.credit = 0
		}
		if len(s.ring) == 0 {
			s.cur, s.credit = 0, 0
		} else if s.cur >= len(s.ring) {
			s.cur = 0
		}
		return
	}
}

// AcquireLease is the shared fleet's single lease endpoint: weighted
// round-robin over the running campaigns. Each campaign is served up to
// priority consecutive grants before the cursor advances, so under a
// saturated fleet grants divide in exact priority proportion; a campaign
// at its max-inflight cap (or with nothing dispatchable) is skipped
// without consuming its turn.
func (s *Server) AcquireLease(worker string) campaignd.Lease {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shutdown {
		return campaignd.Lease{Status: campaignd.LeaseDone}
	}
	retry := time.Second // idle default: no running campaigns
	n := len(s.ring)
	for scanned := 0; scanned < n; scanned++ {
		c := s.ring[s.cur]
		if s.credit <= 0 {
			s.credit = c.priority
		}
		capped := c.maxInflight > 0 && c.coord.Leased() >= c.maxInflight
		if !capped {
			l := c.coord.AcquireLease(worker)
			switch l.Status {
			case campaignd.LeaseGranted:
				l.Campaign = c.id
				c.leased.Inc()
				s.credit--
				if s.credit <= 0 {
					s.advanceLocked()
				}
				return l
			case campaignd.LeaseWait:
				if l.RetryAfter > 0 && l.RetryAfter < retry {
					retry = l.RetryAfter
				}
			}
			// LeaseDone: the campaign drained but its watcher has not
			// finished it yet — treat as nothing dispatchable here.
		} else if wait := s.ttl / 4; wait < retry {
			// A capped campaign frees capacity at worst when a lease expires.
			retry = wait
		}
		s.advanceLocked()
	}
	if retry < 50*time.Millisecond {
		retry = 50 * time.Millisecond
	}
	return campaignd.Lease{Status: campaignd.LeaseWait, RetryAfter: retry}
}

// advanceLocked moves the WRR cursor to the next ring slot and clears the
// current credit so the next campaign starts a fresh burst.
func (s *Server) advanceLocked() {
	s.credit = 0
	if len(s.ring) > 0 {
		s.cur = (s.cur + 1) % len(s.ring)
	} else {
		s.cur = 0
	}
}

// lookup fetches a campaign record.
func (s *Server) lookup(id string) (*campaign, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.campaigns[id]
	if c == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return c, nil
}

// SpecJSON serves a campaign's canonical spec bytes to workers.
func (s *Server) SpecJSON(id string) ([]byte, error) {
	c, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	if s.stateOf(c) == StateCancelled {
		return nil, fmt.Errorf("%w: %q", ErrGone, id)
	}
	return c.specJSON, nil
}

// Heartbeat extends a lease on the named campaign.
func (s *Server) Heartbeat(id string, leaseID uint64) error {
	c, err := s.lookup(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	coord, state := c.coord, c.state
	s.mu.Unlock()
	if state == StateCancelled {
		return fmt.Errorf("%w: %q", ErrGone, id)
	}
	if coord == nil {
		return campaignd.ErrLeaseGone
	}
	return coord.Heartbeat(leaseID)
}

// SubmitResult routes a worker's completed trial to its campaign's lease
// book and reports, via the ack, whether that campaign drained
// (CampaignDone) and whether the whole server is out of work (Done — only
// during shutdown; a long-lived scheduler always expects more campaigns).
func (s *Server) SubmitResult(id string, index int, leaseID uint64, res fleet.TrialResult) (campaignd.SubmitAck, error) {
	c, err := s.lookup(id)
	if err != nil {
		return campaignd.SubmitAck{}, err
	}
	s.mu.Lock()
	coord, state, shutdown := c.coord, c.state, s.shutdown
	s.mu.Unlock()
	if state == StateCancelled {
		return campaignd.SubmitAck{}, fmt.Errorf("%w: %q", ErrGone, id)
	}
	if coord == nil {
		// Resumed-as-done campaign: the trial is already in the journal.
		return campaignd.SubmitAck{Duplicate: true, CampaignDone: true, Done: shutdown}, nil
	}
	serr := coord.Submit(index, leaseID, res)
	if serr != nil && !errors.Is(serr, campaignd.ErrTrialDone) {
		return campaignd.SubmitAck{}, serr
	}
	return campaignd.SubmitAck{
		Accepted:     serr == nil,
		Duplicate:    serr != nil,
		CampaignDone: coord.Finished(),
		Done:         shutdown,
	}, nil
}

// Cancel withdraws a queued or running campaign. Cancelling a cancelled
// campaign is a no-op; a complete one is refused.
func (s *Server) Cancel(id string) (CampaignView, error) {
	s.mu.Lock()
	c := s.campaigns[id]
	if c == nil {
		s.mu.Unlock()
		return CampaignView{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	switch c.state {
	case StateCancelled:
		v := s.viewLocked(c)
		s.mu.Unlock()
		return v, nil
	case StateDone, StateDraining:
		v := s.viewLocked(c)
		s.mu.Unlock()
		return v, fmt.Errorf("%w: %q", ErrAlreadyDone, id)
	}
	wasRunning := c.state == StateRunning
	c.state = StateCancelled
	if wasRunning {
		s.dropFromRingLocked(c)
	}
	journal, sink := c.journal, c.sink
	c.journal, c.sink = nil, nil
	if err := s.persistLocked(); err != nil {
		s.mu.Unlock()
		return CampaignView{}, err
	}
	s.promoteLocked()
	s.syncGaugesLocked()
	v := s.viewLocked(c)
	s.mu.Unlock()

	if journal != nil {
		_ = sink.Close()
		_ = journal.Sync()
		_ = journal.Close()
	}
	if s.log != nil {
		s.log.Info("campaign cancelled", "campaign", id, "was_running", wasRunning)
	}
	return v, nil
}

// BeginShutdown flips the server into draining mode: new submissions are
// refused, lease polls answer "done" so workers exit, and submit acks
// carry Done. In-flight campaign state stays durable — a later -resume
// continues exactly where the fleet left off.
func (s *Server) BeginShutdown() {
	s.mu.Lock()
	s.shutdown = true
	s.mu.Unlock()
	if s.log != nil {
		s.log.Info("shutdown begun: telling workers to exit")
	}
}

// Close persists the index and finalises every open journal. Campaigns
// still running stay in state running on disk; resume re-opens them. It
// first waits for the finish calls in flight, so nothing writes to the
// data directory after it returns.
func (s *Server) Close() error {
	s.mu.Lock()
	s.shutdown = true
	s.closed = true
	s.mu.Unlock()
	s.finishing.Wait()

	s.mu.Lock()
	type openJournal struct {
		id      string
		sink    *observatory.Sink
		journal *os.File
	}
	var open []openJournal
	for _, c := range s.bySeq {
		if c.journal != nil {
			open = append(open, openJournal{c.id, c.sink, c.journal})
			c.journal = nil
		}
	}
	err := s.persistLocked()
	s.mu.Unlock()
	for _, o := range open {
		if serr := o.sink.Close(); serr != nil && err == nil {
			err = fmt.Errorf("campaign %s event log: %w", o.id, serr)
		}
		if serr := o.journal.Sync(); serr != nil && err == nil {
			err = fmt.Errorf("campaign %s event log: %w", o.id, serr)
		}
		if serr := o.journal.Close(); serr != nil && err == nil {
			err = fmt.Errorf("campaign %s event log: %w", o.id, serr)
		}
	}
	return err
}

// stateOf samples a campaign's state under the server lock.
func (s *Server) stateOf(c *campaign) State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return c.state
}

// syncGauges refreshes the service gauges (also available with the lock
// held via syncGaugesLocked).
func (s *Server) syncGauges() {
	s.mu.Lock()
	s.syncGaugesLocked()
	s.mu.Unlock()
}

func (s *Server) syncGaugesLocked() {
	queued := 0
	for _, c := range s.bySeq {
		if c.state == StateQueued {
			queued++
		}
	}
	s.activeGauge.Set(float64(len(s.ring)))
	s.queuedGauge.Set(float64(queued))
}
