package fleet

import (
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Progress is the live, lock-free view of a running fleet campaign. It
// implements Observer: workers feed the fleet series (the ones the
// report's telemetry section ends with) through atomic adds, so sampling
// it from an HTTP handler (or any other goroutine) never stalls the pool.
// Everything it reports is either monotonic (counters) or a
// consistent-enough snapshot for a dashboard — it is deliberately *not*
// part of the deterministic report, because wall-clock rates and ETAs
// depend on the machine.
//
// A nil *Progress is a valid no-op observer target: every method checks
// the receiver, matching the telemetry package's nil-safe hook style.
type Progress struct {
	series *series

	total   atomic.Int64
	workers atomic.Int64
	started atomic.Int64 // trials dispatched to a worker

	virtualNanos atomic.Int64 // summed per-trial virtual time

	buildWallNanos atomic.Int64
	runWallNanos   atomic.Int64

	startWallNanos atomic.Int64 // unix nanos at CampaignStarted
	doneFlag       atomic.Bool
}

// NewProgress returns an empty tracker whose fleet series live on reg (a
// private registry when reg is nil); wire it in via Config.Observer
// (directly, or wrapped by a composite observer that forwards to it). reg
// must not be a registry a running world buffers: the tracker's writers
// are the fleet's worker goroutines.
func NewProgress(reg *telemetry.Registry) *Progress {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Progress{series: newSeries(reg)}
}

// CampaignStarted implements Observer.
func (p *Progress) CampaignStarted(cfg Config, workers int) {
	if p == nil {
		return
	}
	p.total.Store(int64(cfg.Trials))
	p.workers.Store(int64(workers))
	p.startWallNanos.Store(time.Now().UnixNano())
}

// TrialStarted implements Observer.
func (p *Progress) TrialStarted(TrialSpec) {
	if p == nil {
		return
	}
	p.started.Add(1)
}

// TrialFinished implements Observer.
func (p *Progress) TrialFinished(res TrialResult) {
	if p == nil {
		return
	}
	p.series.observe(res)
	p.virtualNanos.Add(int64(res.VirtualElapsed))
	p.buildWallNanos.Add(int64(res.BuildWall))
	p.runWallNanos.Add(int64(res.RunWall))
}

// CampaignDone implements Observer: the trials fail-fast never dispatched
// are counted as skipped, as the report counts them.
func (p *Progress) CampaignDone(rep *Report) {
	if p == nil {
		return
	}
	p.series.count(StatusSkipped).Add(uint64(rep.Skipped))
	p.doneFlag.Store(true)
}

// TrialsTotal returns the configured trial count (0 before
// CampaignStarted).
func (p *Progress) TrialsTotal() int {
	if p == nil {
		return 0
	}
	return int(p.total.Load())
}

// ProgressBucket is one non-cumulative bin of the live time-to-finding
// histogram; LeSeconds <= 0 marks the +Inf bucket.
type ProgressBucket struct {
	LeSeconds float64 `json:"leSeconds"`
	Count     uint64  `json:"count"`
}

// ProgressSnapshot is one consistent-enough sample of a running campaign —
// the /campaign.json document. Counter fields may lag each other by a
// trial under concurrent updates; rates and the ETA are wall-clock derived
// and therefore machine-dependent by design.
type ProgressSnapshot struct {
	TrialsTotal int  `json:"trialsTotal"`
	TrialsDone  int  `json:"trialsDone"`
	InFlight    int  `json:"inFlight"`
	Workers     int  `json:"workers"`
	Done        bool `json:"done"`

	// Per-outcome counters over finished trials.
	Findings int `json:"findings"`
	Timeouts int `json:"timeouts"`
	Stalled  int `json:"stalled"`
	Panics   int `json:"panics"`
	Errors   int `json:"errors"`
	Skipped  int `json:"skipped"`

	// FindingsTotal counts oracle firings (a trial can have several).
	FindingsTotal int `json:"findingsTotal"`

	// Per-world counters summed across finished trials.
	FramesSent uint64 `json:"framesSent"`
	SendErrors uint64 `json:"sendErrors"`

	VirtualNanosTotal int64 `json:"virtualNanosTotal"`
	MaxVirtualNanos   int64 `json:"maxVirtualNanos"`

	// Wall-clock derived throughput: campaign execution speed as the
	// operator experiences it.
	WallSeconds  float64 `json:"wallSeconds"`
	ExecPerSec   float64 `json:"execPerSec"` // fuzz frames per wall second
	TrialsPerSec float64 `json:"trialsPerSec"`
	EtaSeconds   float64 `json:"etaSeconds"` // 0 when unknown or done

	// Phase wall-time breakdown summed over finished trials.
	BuildWallSeconds float64 `json:"buildWallSeconds"`
	RunWallSeconds   float64 `json:"runWallSeconds"`

	// Time-to-finding distribution so far.
	TimeToFindingCount       uint64           `json:"timeToFindingCount"`
	TimeToFindingMeanSeconds float64          `json:"timeToFindingMeanSeconds"`
	TimeToFindingHistogram   []ProgressBucket `json:"timeToFindingHistogram,omitempty"`
}

// Snapshot samples the tracker. Safe to call at any time from any
// goroutine, including while workers are mid-trial; nil returns a zero
// snapshot.
func (p *Progress) Snapshot() ProgressSnapshot {
	var s ProgressSnapshot
	if p == nil {
		return s
	}
	fs := p.series
	s.TrialsTotal = int(p.total.Load())
	s.Workers = int(p.workers.Load())
	s.Done = p.doneFlag.Load()
	s.Findings = int(fs.trials[StatusFinding].Value())
	s.Timeouts = int(fs.trials[StatusTimeout].Value())
	s.Stalled = int(fs.stalled.Load().Value())
	s.Panics = int(fs.trials[StatusPanic].Value())
	s.Errors = int(fs.trials[StatusError].Value())
	s.Skipped = int(fs.trials[StatusSkipped].Value())
	s.TrialsDone = s.Findings + s.Timeouts + s.Stalled + s.Panics + s.Errors
	s.InFlight = int(p.started.Load()) - s.TrialsDone
	if s.InFlight < 0 {
		s.InFlight = 0
	}
	s.FindingsTotal = int(fs.findings.Value())
	s.FramesSent = fs.frames.Value()
	s.SendErrors = fs.sendErrors.Value()
	s.VirtualNanosTotal = p.virtualNanos.Load()
	s.MaxVirtualNanos = int64(fs.reg.Now())
	s.BuildWallSeconds = time.Duration(p.buildWallNanos.Load()).Seconds()
	s.RunWallSeconds = time.Duration(p.runWallNanos.Load()).Seconds()

	if start := p.startWallNanos.Load(); start > 0 {
		s.WallSeconds = time.Since(time.Unix(0, start)).Seconds()
	}
	if s.WallSeconds > 0 {
		s.ExecPerSec = float64(s.FramesSent) / s.WallSeconds
		s.TrialsPerSec = float64(s.TrialsDone) / s.WallSeconds
	}
	if !s.Done && s.TrialsDone > 0 && s.TrialsPerSec > 0 {
		remaining := s.TrialsTotal - s.TrialsDone - s.Skipped
		if remaining > 0 {
			s.EtaSeconds = float64(remaining) / s.TrialsPerSec
		}
	}

	if n := fs.ttf.Count(); n > 0 {
		s.TimeToFindingCount = n
		s.TimeToFindingMeanSeconds = fs.ttf.Sum() / float64(n)
		counts := fs.ttf.Buckets()
		s.TimeToFindingHistogram = make([]ProgressBucket, len(counts))
		for i, c := range counts {
			s.TimeToFindingHistogram[i].Count = c
			if i < len(timeToFindingBoundsSeconds) {
				s.TimeToFindingHistogram[i].LeSeconds = timeToFindingBoundsSeconds[i]
			}
		}
	}
	return s
}
