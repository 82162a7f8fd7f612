// Package telemetry is the unified observability plane of the simulated
// stack: a metrics registry (counters, gauges, bounded histograms), a
// bounded event tracer, and HTTP surfacing — all timestamped on the
// discrete-event virtual clock rather than wall time.
//
// The paper's automation requirement (§I "fuzz testing is automated for
// efficiency", §VI recorded failure conditions) needs more than a final
// JSON report: a CI pipeline has to watch a running campaign, correlate an
// oracle firing with the arbitration and error-frame events that preceded
// it, and compare throughput across revisions. Every instrumentation hook
// is nil-safe — a component holding a nil *Telemetry (the default) pays
// one predictable branch per sample and allocates nothing — so the fuzzing
// hot path is unchanged unless observability is requested.
//
// Live reads are race-free and cheap for the writer. A campaign run
// (Buffer ... Flush, called by core.Campaign's Start and Stop) makes the
// world's goroutine the plane's only writer: metric writes land in
// writer-local fields that the campaign's 256-frame checkpoint (Publish)
// and Flush fold into the atomics readers load, and the tracer publishes
// its ring once per 256 events. So during a run a metric read (/metrics,
// /metrics.json, /healthz's clock) is as of the last checkpoint, at most
// 256 fuzz frames behind, and a trace read (/trace.json, /healthz's event
// count, Events, Len, Total) at most 256 events behind; both are exact
// after the campaign stops. Outside a run every write is a direct atomic
// update (or a locked trace append), safe from any goroutine. A Telemetry
// instruments one world; see Registry and Tracer.
//
// Exports:
//   - Registry: Prometheus text exposition and a JSON snapshot.
//   - Tracer: Chrome trace_event JSON; open a campaign in Perfetto and see
//     per-port arbitration, wire-time spans, ECU dispatch and oracle
//     firings on the virtual timeline.
//   - Handler/Serve: /metrics, /metrics.json, /healthz, /trace.json.
package telemetry

import (
	"time"
)

// Telemetry bundles a registry and a tracer. A nil *Telemetry disables
// both: Reg() and Trc() return nil, whose methods are no-ops.
type Telemetry struct {
	// Registry holds the metric series.
	Registry *Registry
	// Tracer holds the event ring buffer.
	Tracer *Tracer
}

// New creates a Telemetry with a fresh registry and a tracer of the given
// capacity (DefaultTraceCapacity when <= 0).
func New(traceCapacity int) *Telemetry {
	return &Telemetry{
		Registry: NewRegistry(),
		Tracer:   NewTracer(traceCapacity),
	}
}

// Reg returns the registry (nil when t is nil).
func (t *Telemetry) Reg() *Registry {
	if t == nil {
		return nil
	}
	return t.Registry
}

// Trc returns the tracer (nil when t is nil).
func (t *Telemetry) Trc() *Tracer {
	if t == nil {
		return nil
	}
	return t.Tracer
}

// Advance records the current virtual time on the registry so exports and
// /healthz can report how far the simulation has progressed.
func (t *Telemetry) Advance(now time.Duration) {
	if t == nil {
		return
	}
	t.Registry.Advance(now)
}

// Buffer puts the registry and the tracer into buffered mode for a run:
// until Flush the calling goroutine must be the plane's only writer.
// Nil-safe and idempotent: it reports whether this call opened the run,
// that is whether the plane was not buffered before.
func (t *Telemetry) Buffer() bool {
	if t == nil {
		return false
	}
	opened := t.Registry.Buffer()
	t.Tracer.Buffer()
	return opened
}

// Publish folds the registry's buffered writes into its published series
// (a run checkpoint). The tracer publishes on its own every 256 events.
// Nil-safe; a no-op outside buffered mode.
func (t *Telemetry) Publish() {
	if t == nil {
		return
	}
	t.Registry.Publish()
}

// Flush publishes everything buffered and returns registry and tracer to
// their direct, any-goroutine write mode; reads are exact afterwards.
// Nil-safe; a no-op outside buffered mode.
func (t *Telemetry) Flush() {
	if t == nil {
		return
	}
	t.Registry.Flush()
	t.Tracer.Flush()
}

// RunBuffered drives a simulation from virtual time from to end as the
// plane's only writer, so a live endpoint may read the plane meanwhile:
// the plane is buffered, runUntil advances the simulation to each step
// boundary in turn (end last) on the calling goroutine, the plane
// publishes at each boundary, and it flushes after the last. No event is
// scheduled for the publications, so the simulation runs exactly as one
// runUntil(end) would; when end is not after from, nothing runs. With a
// nil plane it only runs the steps.
func (t *Telemetry) RunBuffered(from, end, step time.Duration, runUntil func(time.Duration)) {
	t.Buffer()
	for at := from; at < end; {
		at = min(at+step, end)
		runUntil(at)
		t.Advance(at)
		t.Publish()
	}
	t.Flush()
}

// Reset zeroes every metric series and discards retained trace events,
// keeping all registrations and handles. Called when a pooled world is
// reused so one trial's telemetry cannot leak into the next. Nil-safe.
func (t *Telemetry) Reset() {
	if t == nil {
		return
	}
	t.Registry.Reset()
	t.Tracer.Reset()
}

// Emit forwards one trace event.
func (t *Telemetry) Emit(e Event) {
	if t == nil {
		return
	}
	t.Tracer.Emit(e)
}
