package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/telemetry"
)

// Trial statuses.
const (
	// StatusFinding means the trial's campaign produced at least one
	// finding before its deadline.
	StatusFinding = "finding"
	// StatusTimeout means the per-trial deadline elapsed with no finding.
	StatusTimeout = "timeout"
	// StatusStalled means the trial's wall-clock budget (Config.TrialTimeout)
	// expired while virtual time stopped advancing — a hung world, cancelled
	// instead of pinning its worker. Distinct from StatusTimeout, which is
	// the *virtual* deadline of a healthy world; a stalled trial is the
	// local analogue of an expired distributed lease.
	StatusStalled = "stalled"
	// StatusPanic means the trial's world panicked; the panic was contained
	// and classified, the rest of the fleet was unaffected.
	StatusPanic = "panic"
	// StatusError means the TargetFactory failed to build the world.
	StatusError = "error"
	// StatusSkipped means fail-fast cancellation stopped the trial before
	// it was dispatched.
	StatusSkipped = "skipped"
)

// TrialResult is the outcome of one isolated trial, fully determined by
// the trial's seed (scheduling of other trials cannot influence it).
type TrialResult struct {
	// Trial is the trial index in [0, Trials).
	Trial int `json:"trial"`
	// Seed is the campaign seed the trial ran with.
	Seed int64 `json:"seed"`
	// Status classifies the outcome (StatusFinding, StatusTimeout, ...).
	Status string `json:"status"`
	// VirtualElapsed is the virtual time the trial's world advanced.
	VirtualElapsed time.Duration `json:"virtualElapsedNanos"`
	// TimeToFinding is the virtual time of the first finding (0 unless
	// Status is StatusFinding).
	TimeToFinding time.Duration `json:"timeToFindingNanos,omitempty"`
	// Oracle and Detail describe the first finding.
	Oracle string `json:"oracle,omitempty"`
	Detail string `json:"detail,omitempty"`
	// TriggerID is the identifier of the last fuzz frame preceding the
	// first finding, in hex ("" when unknown).
	TriggerID string `json:"triggerId,omitempty"`
	// TriggerFrames holds the fuzz frames that preceded the first finding
	// (the campaign's recent-frame window) in corpus "ID#HEXDATA" form,
	// transmission order — the raw material the findings database and the
	// minimizer work from. Empty when the trial found nothing.
	TriggerFrames []string `json:"triggerFrames,omitempty"`
	// Findings is the number of oracle firings in the trial.
	Findings int `json:"findings"`
	// FramesSent and SendErrors are the trial campaign's counters.
	FramesSent uint64 `json:"framesSent"`
	SendErrors uint64 `json:"sendErrors"`
	// SendErrorsByCause breaks SendErrors down by cause.
	SendErrorsByCause map[string]uint64 `json:"sendErrorsByCause,omitempty"`
	// Corpus is the trial's evolved guided-mode corpus in "ID#HEXDATA"
	// form, admission order (nil outside guided campaigns).
	Corpus []string `json:"corpus,omitempty"`
	// PanicValue is the contained panic (StatusPanic only).
	PanicValue string `json:"panicValue,omitempty"`
	// Err is the factory error (StatusError only).
	Err string `json:"error,omitempty"`

	// BuildWall and RunWall are the wall-clock durations of the trial's
	// world-construction and campaign-run phases. They feed the live
	// progress view and the report's phase breakdown but are excluded from
	// the JSON: serialised results must be a pure function of the seed.
	BuildWall time.Duration `json:"-"`
	RunWall   time.Duration `json:"-"`
}

// AggregatedFinding is one deduplicated finding across the fleet, keyed by
// (oracle, detail, trigger frame identifier).
type AggregatedFinding struct {
	// Oracle and Detail identify the failure class.
	Oracle string `json:"oracle"`
	Detail string `json:"detail"`
	// TriggerID is the hex identifier of the frame preceding the finding.
	TriggerID string `json:"triggerId,omitempty"`
	// Count is how many trials hit this finding.
	Count int `json:"count"`
	// FirstTrial is the lowest trial index that hit it.
	FirstTrial int `json:"firstTrial"`
	// MinTimeToFinding is the fastest virtual time any trial needed.
	MinTimeToFinding time.Duration `json:"minTimeToFindingNanos"`
}

// TimeToFindingStats summarises the virtual time-to-finding distribution
// over the trials that produced findings.
type TimeToFindingStats struct {
	// Samples is the number of finding trials behind the statistics.
	Samples int `json:"samples"`
	// Mean, Median, P95, Min and Max summarise the distribution.
	Mean   time.Duration `json:"meanNanos"`
	Median time.Duration `json:"medianNanos"`
	P95    time.Duration `json:"p95Nanos"`
	Min    time.Duration `json:"minNanos"`
	Max    time.Duration `json:"maxNanos"`
	// Histogram bins the distribution (analysis.NewDurationHistogram).
	Histogram []HistogramBucket `json:"histogram,omitempty"`
}

// HistogramBucket is one serialisable bin of the time-to-finding histogram.
type HistogramBucket struct {
	// Lo and Hi bound the bin in virtual nanoseconds.
	Lo time.Duration `json:"loNanos"`
	Hi time.Duration `json:"hiNanos"`
	// Count is the number of trials in the bin.
	Count uint64 `json:"count"`
}

// Report is the deterministic fleet summary: identical configuration and
// base seed produce byte-identical JSON at any worker count, because every
// field is derived from per-trial results ordered by trial index, never by
// completion order, and no wall-clock quantity is recorded.
type Report struct {
	// BaseSeed and Trials echo the configuration.
	BaseSeed int64 `json:"baseSeed"`
	Trials   int   `json:"trials"`
	// Workers is the pool size the fleet ran with. It is an execution
	// detail, not part of the result, so it is deliberately excluded from
	// the JSON: the same fleet serialises byte-identically at any worker
	// count.
	Workers int `json:"-"`
	// FailFast records whether first-finding cancellation was armed.
	FailFast bool `json:"failFast,omitempty"`
	// MaxPerTrial is the per-trial virtual deadline.
	MaxPerTrial time.Duration `json:"maxPerTrialNanos"`

	// Completed counts trials that ran to a classified end (everything but
	// StatusSkipped); FoundFindings/TimedOut/Stalled/Panics/Errors/Skipped
	// break the fleet down by status. Stalled is omitempty so reports from
	// fleets without a TrialTimeout serialise exactly as before.
	Completed     int `json:"completed"`
	FoundFindings int `json:"foundFindings"`
	TimedOut      int `json:"timedOut"`
	Stalled       int `json:"stalled,omitempty"`
	Panics        int `json:"panics"`
	Errors        int `json:"errors"`
	Skipped       int `json:"skipped"`

	// FramesSent and SendErrors sum the per-trial counters.
	FramesSent uint64 `json:"framesSent"`
	SendErrors uint64 `json:"sendErrors"`
	// VirtualTimeTotal sums per-trial virtual elapsed time — the simulated
	// fuzzing time the fleet covered (wall time is a fraction of it).
	VirtualTimeTotal time.Duration `json:"virtualTimeTotalNanos"`

	// TimeToFinding summarises the distribution over finding trials (nil
	// when no trial found anything).
	TimeToFinding *TimeToFindingStats `json:"timeToFinding,omitempty"`
	// MergedCorpus is the union of per-trial guided corpora, deduplicated
	// in trial-index order — byte-identical at any worker count, like the
	// rest of the report (nil outside guided campaigns).
	MergedCorpus []string `json:"mergedCorpus,omitempty"`
	// Findings lists deduplicated findings sorted by (oracle, detail,
	// trigger identifier).
	Findings []AggregatedFinding `json:"findings,omitempty"`
	// Results holds every trial in index order.
	Results []TrialResult `json:"results"`
	// Telemetry is the merged fleet telemetry snapshot (the
	// telemetry.Registry JSON document).
	Telemetry json.RawMessage `json:"telemetry,omitempty"`

	// BuildWall and RunWall sum the per-trial phase wall times — the
	// build/run breakdown of where the fleet actually spent CPU. Like
	// Workers they are execution details, excluded from the JSON so the
	// report stays byte-identical across machines and worker counts.
	BuildWall time.Duration `json:"-"`
	RunWall   time.Duration `json:"-"`
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport decodes a serialised fleet report (the inverse of WriteJSON)
// for offline consumers such as the perfbench service workload. A report
// carries no generator config, so findings records are built from the
// campaign itself (canfuzz -findings-db, canfuzzd), not from a report.
func ReadReport(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// histogramBins is the bin count for the time-to-finding histogram.
const histogramBins = 10

// timeToFindingBoundsSeconds are the telemetry histogram bucket bounds for
// fleet_time_to_finding_seconds; Table V times span seconds to an hour.
var timeToFindingBoundsSeconds = []float64{1, 5, 10, 30, 60, 120, 300, 600, 1800, 3600}

// series holds the fleet's telemetry series: trials by outcome, summed
// frames, rejected transmissions and oracle firings, the time-to-finding
// histogram, and the registry clock as the deepest trial's virtual time.
// Report.aggregate feeds it in trial-index order on a private registry;
// Progress feeds it live, in completion order, on the registry it is
// given. observe is safe for concurrent use.
type series struct {
	reg *telemetry.Registry
	// trials holds the eagerly registered fleet_trials_total series; it is
	// never written after newSeries, so workers may read it concurrently.
	trials map[string]*telemetry.Counter
	// stalled is fleet_trials_total{status="stalled"}, nil until the first
	// stalled trial registers it.
	stalled atomic.Pointer[telemetry.Counter]

	frames, sendErrors, findings *telemetry.Counter
	ttf                          *telemetry.Histogram
}

// newSeries registers the fleet series on reg.
func newSeries(reg *telemetry.Registry) *series {
	s := &series{reg: reg, trials: map[string]*telemetry.Counter{}}
	for _, st := range []string{StatusFinding, StatusTimeout, StatusPanic, StatusError, StatusSkipped} {
		s.trials[st] = s.count(st)
	}
	s.frames = reg.Counter("fleet_frames_sent_total", "Fuzz frames transmitted across the fleet.")
	s.sendErrors = reg.Counter("fleet_send_errors_total", "Rejected transmissions across the fleet.")
	s.findings = reg.Counter("fleet_findings_total", "Oracle firings across the fleet.")
	s.ttf = reg.Histogram("fleet_time_to_finding_seconds",
		"Virtual time to first finding per finding trial.", timeToFindingBoundsSeconds)
	return s
}

// count returns the fleet_trials_total series of a status. Rarer statuses
// (StatusStalled) register on first use, so a fleet that never produces
// one keeps its telemetry — and thus the report bytes — unchanged.
func (s *series) count(status string) *telemetry.Counter {
	if c, ok := s.trials[status]; ok {
		return c
	}
	c := s.reg.Counter("fleet_trials_total", "Fleet trials by outcome.",
		telemetry.Label{Key: "status", Value: status})
	if status == StatusStalled {
		s.stalled.Store(c)
	}
	return c
}

// observe folds one trial into the series.
func (s *series) observe(tr TrialResult) {
	s.count(tr.Status).Inc()
	s.frames.Add(tr.FramesSent)
	s.sendErrors.Add(tr.SendErrors)
	s.findings.Add(uint64(tr.Findings))
	if tr.Status == StatusFinding {
		s.ttf.ObserveDuration(tr.TimeToFinding)
	}
	s.reg.Advance(tr.VirtualElapsed)
}

// NewReport assembles the deterministic fleet report from per-trial
// results ordered by trial index. It is the single aggregation path for
// both execution models: Run feeds it the pool's result slice, and a
// campaign service lease book (internal/campaignd) feeds it results
// collected over HTTP from any worker topology — because every TrialResult is a pure
// function of its seed and aggregation is pure sequential code, the two
// serialise byte-identically. Callers may set the JSON-excluded execution
// details (Workers, FailFast) on the returned report afterwards.
func NewReport(baseSeed int64, maxPerTrial time.Duration, results []TrialResult) *Report {
	rep := &Report{
		BaseSeed:    baseSeed,
		Trials:      len(results),
		MaxPerTrial: maxPerTrial,
		Results:     results,
	}
	rep.aggregate()
	return rep
}

// aggregate folds the per-trial results (already in index order) into the
// report: the fleet series (which give the status counts and summed
// counters), deduplicated findings, the time-to-finding distribution and
// the merged telemetry snapshot. It is
// pure sequential code, so the result is independent of how the trials
// were interleaved across workers.
func (r *Report) aggregate() {
	reg := telemetry.NewRegistry()
	fs := newSeries(reg)

	var times []time.Duration
	dedup := map[string]*AggregatedFinding{}
	seenCorpus := map[string]bool{}
	for _, tr := range r.Results {
		for _, line := range tr.Corpus {
			if !seenCorpus[line] {
				seenCorpus[line] = true
				r.MergedCorpus = append(r.MergedCorpus, line)
			}
		}
		if tr.Status == StatusFinding {
			times = append(times, tr.TimeToFinding)
			key := tr.Oracle + "\x00" + tr.Detail + "\x00" + tr.TriggerID
			if f := dedup[key]; f != nil {
				f.Count++
				if tr.TimeToFinding < f.MinTimeToFinding {
					f.MinTimeToFinding = tr.TimeToFinding
				}
			} else {
				dedup[key] = &AggregatedFinding{
					Oracle: tr.Oracle, Detail: tr.Detail, TriggerID: tr.TriggerID,
					Count: 1, FirstTrial: tr.Trial, MinTimeToFinding: tr.TimeToFinding,
				}
			}
		}
		fs.observe(tr)
		r.VirtualTimeTotal += tr.VirtualElapsed
		r.BuildWall += tr.BuildWall
		r.RunWall += tr.RunWall
	}
	r.FoundFindings = int(fs.trials[StatusFinding].Value())
	r.TimedOut = int(fs.trials[StatusTimeout].Value())
	r.Stalled = int(fs.stalled.Load().Value())
	r.Panics = int(fs.trials[StatusPanic].Value())
	r.Errors = int(fs.trials[StatusError].Value())
	r.Skipped = int(fs.trials[StatusSkipped].Value())
	r.Completed = len(r.Results) - r.Skipped
	r.FramesSent = fs.frames.Value()
	r.SendErrors = fs.sendErrors.Value()

	if len(times) > 0 {
		stats := analysis.RunStats{Times: times}
		ttf := &TimeToFindingStats{
			Samples: len(times),
			Mean:    stats.Mean(),
			Median:  stats.Median(),
			P95:     stats.P95(),
			Min:     stats.Min(),
			Max:     stats.Max(),
		}
		for _, b := range analysis.NewDurationHistogram(times, histogramBins).Buckets {
			ttf.Histogram = append(ttf.Histogram, HistogramBucket{Lo: b.Lo, Hi: b.Hi, Count: b.Count})
		}
		r.TimeToFinding = ttf
	}

	for _, f := range dedup {
		r.Findings = append(r.Findings, *f)
	}
	sort.Slice(r.Findings, func(i, j int) bool {
		a, b := r.Findings[i], r.Findings[j]
		if a.Oracle != b.Oracle {
			return a.Oracle < b.Oracle
		}
		if a.Detail != b.Detail {
			return a.Detail < b.Detail
		}
		return a.TriggerID < b.TriggerID
	})

	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err == nil {
		r.Telemetry = json.RawMessage(bytes.TrimSpace(buf.Bytes()))
	}
}
