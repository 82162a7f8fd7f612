// Package observatory is the campaign-scale observability layer on top of
// the fleet orchestrator and the guided engine: a streaming JSONL event
// log, a live HTTP campaign API (/campaign.json, /events, /fuzz.json) and
// optional pprof wiring — the running fleet stops being a black box
// between "start" and "final report".
//
// The paper's quantitative result (Table V) is a distribution over
// thousands of trials; watching it converge live requires exactly what a
// distributed campaign service requires: machine-readable per-trial
// evidence streaming out of the orchestrator while it runs. The event log
// is therefore designed as a wire format first — every line is
// deterministic in content (stable field order, virtual-time stamps,
// (trial, seq) sequencing metadata) so the *sorted* log is byte-identical
// at any worker count, and the campaign service (internal/campsrv) can
// replay, dedupe or resume a campaign from it. The live API reads
// atomically published state (the fleet series fleet.Progress counts on
// the metrics plane, guided.Introspection) and never stalls a worker.
package observatory

import (
	"fmt"
	"log/slog"
	"sync/atomic"

	"repro/internal/fleet"
	"repro/internal/guided"
	"repro/internal/telemetry"
)

// Config assembles an Observatory.
type Config struct {
	// Sink, when non-nil, receives the campaign event stream.
	Sink *Sink
	// Fuzz, when non-nil, is the guided-engine introspection plane served
	// at /fuzz.json and, with a Telemetry plane, as the fuzz_* gauges.
	Fuzz *guided.Introspection
	// Telemetry, when non-nil, is the metrics plane whose routes
	// (/metrics, /metrics.json, /trace.json, /healthz) the observatory
	// handler also serves. Its registry carries the fleet series the
	// progress tracker counts, live, so in fleet mode it must be a plane
	// no trial world buffers.
	Telemetry *telemetry.Telemetry
	// Logger, when non-nil, receives a "fleet progress" line every tenth
	// of the campaign's trials and at the last one.
	Logger *slog.Logger
}

// Observatory implements fleet.Observer: it maintains the live Progress
// tracker, streams events into the sink, and serves the whole bundle over
// HTTP via Handler. All callback work is atomic-counter updates plus (when
// an event log is attached) one marshalled line, so observing a fleet does
// not serialise it.
type Observatory struct {
	progress *fleet.Progress
	sink     *Sink
	fuzz     *guided.Introspection
	tel      *telemetry.Telemetry
	log      *slog.Logger

	completions atomic.Int64
}

// New assembles an observatory. Every Config field is optional; the zero
// Config yields a progress tracker on a private registry with no event
// log, no fuzz view and no metrics plane.
func New(cfg Config) *Observatory {
	o := &Observatory{
		progress: fleet.NewProgress(cfg.Telemetry.Reg()),
		sink:     cfg.Sink,
		fuzz:     cfg.Fuzz,
		tel:      cfg.Telemetry,
		log:      cfg.Logger,
	}
	if o.tel != nil && o.fuzz != nil {
		// The guided gauges are evaluated at export time from the
		// introspection snapshot: the observatory only reads, so it never
		// writes into a registry a running world owns.
		reg := o.tel.Registry
		reg.GaugeFunc("fuzz_corpus_size", "Corpus entries summed over guided engines.",
			func() float64 { return float64(o.fuzz.Snapshot().CorpusSize) })
		reg.GaugeFunc("fuzz_novelty_bits_set", "Novelty-map bits set, summed over guided engines.",
			func() float64 { return float64(o.fuzz.Snapshot().NoveltyBitsSet) })
		reg.GaugeFunc("fuzz_execs_since_novelty", "Smallest per-engine staleness (execs since novelty).",
			func() float64 { return float64(o.fuzz.Snapshot().ExecsSinceNoveltyMin) })
	}
	return o
}

// CampaignStarted implements fleet.Observer.
func (o *Observatory) CampaignStarted(cfg fleet.Config, workers int) {
	o.progress.CampaignStarted(cfg, workers)
}

// TrialStarted implements fleet.Observer.
func (o *Observatory) TrialStarted(spec fleet.TrialSpec) {
	o.progress.TrialStarted(spec)
	o.sink.Emit(TrialStart(spec.Index, spec.Seed))
}

// TrialFinished implements fleet.Observer: update the tracker, then stream
// the trial's events (AppendTrialEvents) followed by a campaign checkpoint
// when this completion is due one, and log progress when due. The
// checkpoint carries only the completed count, which is worker-count
// independent too.
func (o *Observatory) TrialFinished(res fleet.TrialResult) {
	o.progress.TrialFinished(res)
	var buf [4]Event
	evs, _ := AppendTrialEvents(buf[:0], res)
	n := int(o.completions.Add(1))
	total := o.progress.TrialsTotal()
	if cp, due := Checkpoint(n, total); due {
		evs = append(evs, cp)
	}
	o.sink.EmitBatch(evs)
	if o.log != nil && (n%max(1, total/10) == 0 || n == total) {
		s := o.progress.Snapshot()
		o.log.Info("fleet progress", "done", n, "total", total,
			"findings", s.FindingsTotal,
			"trials_per_sec", fmt.Sprintf("%.1f", s.TrialsPerSec))
	}
}

// CampaignDone implements fleet.Observer. With fail-fast skips the final
// per-count checkpoint never fires, so a closing checkpoint is emitted
// here instead.
func (o *Observatory) CampaignDone(rep *fleet.Report) {
	o.progress.CampaignDone(rep)
	if cp, due := Checkpoint(int(o.completions.Load()), o.progress.TrialsTotal()); !due {
		o.sink.Emit(cp)
	}
}
