package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry collects named metrics. Samples carry the discrete-event virtual
// time (see Advance), not wall time: a scrape of a campaign that ran 4472
// simulated seconds in 40 ms of real time reports 4472 s.
//
// A registry has two write modes, like Tracer. Outside a run the hot-path
// operations (Counter.Inc/Add, Gauge.Set, Histogram.Observe, Advance) are
// lock-free atomic updates, so any goroutine may write. During a run
// (Buffer ... Flush, which Telemetry.Buffer/Flush and so core.Campaign's
// Start and Stop call) the world's simulation goroutine is the only
// writer: each operation updates plain writer-local fields, and Publish
// (the campaign's 256-frame checkpoint) and Flush fold them into the
// atomics readers load. Readers (Value, Count, Sum, Now, WritePrometheus,
// WriteJSON) only ever load the published atomics, so a live scrape is
// race-free and sees every series as of the last fold — at most 256 fuzz
// frames behind during a run, exact after Flush. Both modes allocate
// nothing per operation; registration and export take a mutex and may
// allocate.
//
// A counter view (CounterView) has no write operation at all: it reads a
// count its owner keeps, copying it at Publish and Flush while buffered
// and loading it directly otherwise. So a plane with views is safe to
// read live only while its writer runs buffered.
//
// A nil *Registry is valid: registration returns nil metrics and every
// metric method is a no-op on a nil receiver, so uninstrumented components
// pay only a nil check.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	index   map[string]metric

	// now is the published latest virtual time reported via Advance, in
	// nanoseconds.
	now atomic.Int64

	// Writer state: the owner's alone while buffered (set and cleared
	// under mu, so a concurrent registration sees the current mode).
	buffered bool
	localNow int64 // Advance's running maximum while buffered
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]metric)}
}

// Advance records the current virtual time as a running maximum.
// Components call it from the simulation goroutine; exports read it
// atomically, so a live HTTP scrape never races the event loop. Outside
// buffered mode several goroutines may advance the clock at once (a
// fleet's workers do), so the direct path is a compare-and-swap loop: a
// plain load-then-store could overwrite a larger time with a smaller one.
func (r *Registry) Advance(now time.Duration) {
	if r == nil {
		return
	}
	if r.buffered {
		if int64(now) > r.localNow {
			r.localNow = int64(now)
		}
		return
	}
	for {
		cur := r.now.Load()
		if int64(now) <= cur || r.now.CompareAndSwap(cur, int64(now)) {
			return
		}
	}
}

// Buffer switches the registry to buffered mode for a run: from now until
// Flush the calling goroutine must be its only writer, and its writes
// reach readers only at Publish or Flush. Idempotent: it reports whether
// this call switched modes, so the one that opened a run knows that it
// is the one to Flush it.
func (r *Registry) Buffer() bool {
	if r == nil || r.buffered {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buffered = true
	r.localNow = r.now.Load()
	for _, m := range r.metrics {
		m.setBuffered(true)
	}
	return true
}

// Publish folds every buffered write into the published atomics, so
// readers see the series as of this call. A no-op outside buffered mode.
func (r *Registry) Publish() {
	if r == nil || !r.buffered {
		return
	}
	r.mu.Lock()
	r.publishLocked()
	r.mu.Unlock()
}

// publishLocked is Publish with mu held.
func (r *Registry) publishLocked() {
	for _, m := range r.metrics {
		m.publish()
	}
	r.now.Store(r.localNow)
}

// Flush publishes every buffered write and returns the registry to the
// direct atomic mode, after which reads are exact. A no-op outside
// buffered mode.
func (r *Registry) Flush() {
	if r == nil || !r.buffered {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.publishLocked()
	for _, m := range r.metrics {
		m.setBuffered(false)
	}
	r.buffered = false
}

// Now returns the latest virtual time the registry has seen.
func (r *Registry) Now() time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.now.Load())
}

// Label is one metric dimension, rendered as name{key="value"}.
type Label struct {
	Key   string
	Value string
}

// desc is the shared identity of a metric series.
type desc struct {
	name   string
	help   string
	labels []Label
}

// key returns the unique series identifier (name plus sorted labels).
func (d *desc) key() string {
	if len(d.labels) == 0 {
		return d.name
	}
	var sb strings.Builder
	sb.WriteString(d.name)
	for _, l := range d.labels {
		sb.WriteByte('{')
		sb.WriteString(l.Key)
		sb.WriteByte('=')
		sb.WriteString(l.Value)
		sb.WriteByte('}')
	}
	return sb.String()
}

// labelString renders {k="v",...} or "" for an unlabelled series.
func (d *desc) labelString() string {
	if len(d.labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range d.labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// metric is the common interface of registered series.
type metric interface {
	describe() *desc
	typ() string
	// writeProm appends the sample line(s) for this series.
	writeProm(w io.Writer) error
	// jsonValue returns the export value for the JSON snapshot.
	jsonValue() any
	// zero clears the series value, published and buffered, keeping its
	// registration — the plane of a pooled world must not carry one
	// trial's counts into the next.
	zero()
	// setBuffered enters (seeding the writer-local fields from the
	// published value) or leaves buffered mode; see Registry.Buffer.
	setBuffered(on bool)
	// publish folds the writer-local fields into the published atomics.
	publish()
}

// Reset zeroes every registered series in place, keeping all
// registrations (components hold direct metric handles, so the series
// themselves must survive) and the write mode; unpublished buffered
// writes are dropped. Used when a world is reused across trials.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.metrics {
		m.zero()
	}
	r.now.Store(0)
	r.localNow = 0
}

// register interns a series: registering the same name+labels twice returns
// the existing metric, so independent components can share counters.
func register[M metric](r *Registry, m M) M {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := m.describe().key()
	if existing, ok := r.index[k]; ok {
		if got, ok := existing.(M); ok {
			return got
		}
		panic(fmt.Sprintf("telemetry: metric %q re-registered as a different type", k))
	}
	if r.buffered {
		m.setBuffered(true)
	}
	r.index[k] = m
	r.metrics = append(r.metrics, m)
	return m
}

// sortLabels normalises label order so registration is order-insensitive.
func sortLabels(labels []Label) []Label {
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// --- Counter ---------------------------------------------------------------

// Counter is a monotonically increasing uint64. All methods are safe on a
// nil receiver (no-op) and, outside buffered mode, for concurrent use.
type Counter struct {
	d desc
	v atomic.Uint64

	// Writer-local state while buffered: increments not yet published.
	buffered bool
	pending  uint64
}

// Counter registers (or fetches) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return register(r, &Counter{d: desc{name: name, help: help, labels: sortLabels(labels)}})
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	if c.buffered {
		c.pending++
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	if c.buffered {
		c.pending += n
		return
	}
	c.v.Add(n)
}

// Value returns the published count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) describe() *desc { return &c.d }
func (c *Counter) typ() string     { return "counter" }
func (c *Counter) jsonValue() any  { return c.Value() }

func (c *Counter) zero() {
	c.v.Store(0)
	c.pending = 0
}

func (c *Counter) setBuffered(on bool) { c.buffered = on }

// publish folds the pending increments as one integer delta.
func (c *Counter) publish() {
	if c.pending != 0 {
		c.v.Add(c.pending)
		c.pending = 0
	}
}

func (c *Counter) writeProm(w io.Writer) error {
	_, err := fmt.Fprintf(w, "%s%s %d\n", c.d.name, c.d.labelString(), c.Value())
	return err
}

// counterView is a counter series whose count its owner keeps: a plain
// uint64 the owning component increments on its own path (CounterView).
// The series holds no second copy that every increment must update; it
// reads the owner's count when it publishes or is read.
type counterView struct {
	d   desc
	r   *Registry
	src *uint64
	v   atomic.Uint64 // *src as of the last Publish or Flush
}

// CounterView registers a counter series that reads *src, a count its
// caller alone writes. While the registry is buffered the series
// publishes a copy of *src at each Publish and Flush, taken on the
// writer's goroutine. Outside buffered mode a read loads *src itself, so
// a simulation whose plane another goroutine reads live must run
// buffered. One series has one source: registering it again with the
// same pointer is a no-op, with another pointer a panic. Registry.Reset
// zeroes the published copy; the owner zeroes *src.
func (r *Registry) CounterView(src *uint64, name, help string, labels ...Label) {
	if r == nil {
		return
	}
	v := register(r, &counterView{d: desc{name: name, help: help, labels: sortLabels(labels)}, r: r, src: src})
	if v.src != src {
		panic(fmt.Sprintf("telemetry: counter %q already reads another source", v.d.key()))
	}
}

// value returns the published copy while buffered and *src otherwise.
// It holds r.mu, which Buffer and Flush take to switch modes, so a
// reader never loads *src once the writer may be writing it.
func (c *counterView) value() uint64 {
	c.r.mu.Lock()
	defer c.r.mu.Unlock()
	if c.r.buffered {
		return c.v.Load()
	}
	return *c.src
}

func (c *counterView) describe() *desc { return &c.d }
func (c *counterView) typ() string     { return "counter" }
func (c *counterView) jsonValue() any  { return c.value() }
func (c *counterView) zero()           { c.v.Store(0) }
func (c *counterView) publish()        { c.v.Store(*c.src) }

func (c *counterView) setBuffered(on bool) {
	if on {
		c.publish()
	}
}

func (c *counterView) writeProm(w io.Writer) error {
	_, err := fmt.Fprintf(w, "%s%s %d\n", c.d.name, c.d.labelString(), c.value())
	return err
}

// --- Gauge -----------------------------------------------------------------

// Gauge is an instantaneous float64. Safe on a nil receiver and, outside
// buffered mode, for concurrent use.
type Gauge struct {
	d    desc
	bits atomic.Uint64

	// Writer-local state while buffered: the latest value set.
	buffered bool
	local    float64

	// Writer-side source (SetSource): a Touch made while buffered leaves
	// stale set, and the value is read from src once, at the next
	// Publish, Flush or Settle.
	src   func() float64
	stale bool
}

// Gauge registers (or fetches) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return register(r, &Gauge{d: desc{name: name, help: help, labels: sortLabels(labels)}})
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	if g.buffered {
		g.local = v
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetSource gives the gauge a writer-side source for Touch. Setting one
// replaces the last, so a series re-registered by each rebuilt world
// holds one source, never a list. Call it on the writer goroutine; a
// gauge with a source is written through Touch, not Set.
func (g *Gauge) SetSource(fn func() float64) {
	if g != nil {
		g.src = fn
	}
}

// Touch records that the source's value changed: outside buffered mode
// the gauge is set to it at once; while buffered the source is read only
// at the next Publish, Flush or Settle, however many Touches came first.
// It is for a value that costs more to compute than to flag, written
// far more often than readers can see it.
func (g *Gauge) Touch() {
	if g == nil {
		return
	}
	if g.buffered {
		g.stale = true
		return
	}
	g.bits.Store(math.Float64bits(g.src()))
}

// Settle reads the source now for a Touch still pending, so the writer
// may then change what the source reads without changing the value the
// next Publish shows.
func (g *Gauge) Settle() {
	if g != nil && g.stale {
		g.local, g.stale = g.src(), false
	}
}

// Value returns the published value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) describe() *desc { return &g.d }
func (g *Gauge) typ() string     { return "gauge" }
func (g *Gauge) jsonValue() any  { return g.Value() }

func (g *Gauge) zero() {
	g.bits.Store(0)
	g.local, g.stale = 0, false
}

func (g *Gauge) setBuffered(on bool) {
	if on {
		g.local = g.Value()
	}
	g.buffered = on
}

func (g *Gauge) publish() {
	g.Settle()
	g.bits.Store(math.Float64bits(g.local))
}

func (g *Gauge) writeProm(w io.Writer) error {
	_, err := fmt.Fprintf(w, "%s%s %s\n", g.d.name, g.d.labelString(), formatFloat(g.Value()))
	return err
}

// gaugeFunc is a gauge evaluated at export time: it holds no state, so a
// reader-side plane (the observatory's guided gauges) can expose values
// it reads elsewhere without writing into a world's registry.
type gaugeFunc struct {
	d  desc
	fn func() float64
}

// GaugeFunc registers (or fetches) a gauge series whose value is fn(),
// called on every export. fn runs on the exporting goroutine and must be
// safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	register(r, &gaugeFunc{d: desc{name: name, help: help}, fn: fn})
}

func (g *gaugeFunc) describe() *desc     { return &g.d }
func (g *gaugeFunc) typ() string         { return "gauge" }
func (g *gaugeFunc) jsonValue() any      { return g.fn() }
func (g *gaugeFunc) zero()               {}
func (g *gaugeFunc) setBuffered(on bool) {}
func (g *gaugeFunc) publish()            {}

func (g *gaugeFunc) writeProm(w io.Writer) error {
	_, err := fmt.Fprintf(w, "%s%s %s\n", g.d.name, g.d.labelString(), formatFloat(g.fn()))
	return err
}

// --- Histogram -------------------------------------------------------------

// Histogram accumulates observations into a fixed set of cumulative
// buckets (Prometheus classic histogram semantics). Bounds are upper
// limits in ascending order; an implicit +Inf bucket is always present.
// Observe is a bucket search plus two atomic adds and a CAS outside
// buffered mode, and plain adds while buffered.
type Histogram struct {
	d       desc
	bounds  []float64
	buckets []atomic.Uint64 // one per bound, non-cumulative; +Inf is buckets[len(bounds)]
	count   atomic.Uint64
	sumBits atomic.Uint64 // math.Float64bits of the running sum, CAS-updated

	// Writer-local state while buffered: per-bucket observations not yet
	// published, and the running sum seeded from the published one. The
	// sum is carried, not folded as a delta, so it adds the samples in
	// exactly the order the direct path would.
	buffered bool
	pending  []uint64
	sum      float64
}

// DurationBuckets is a default bucket layout for virtual-time latencies
// (seconds): 100 µs up to ~1 s in roughly 3x steps. CAN frame wire times at
// 500 kb/s fall in the 100 µs–1 ms decade.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.05, 0.1, 0.5, 1,
}

// Histogram registers (or fetches) a histogram series with the given
// bucket upper bounds (nil uses DurationBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if len(bounds) == 0 {
		bounds = DurationBuckets
	}
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	h := &Histogram{
		d:       desc{name: name, help: help, labels: sortLabels(labels)},
		bounds:  bs,
		buckets: make([]atomic.Uint64, len(bs)+1),
		pending: make([]uint64, len(bs)+1),
	}
	return register(r, h)
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// A linear scan from the smallest bound: samples cluster in the low
	// buckets (wire times land in the second), where it beats a binary
	// search. !(b >= v) keeps sort.SearchFloat64s's index for every v,
	// NaN included, which lands in +Inf.
	i := 0
	for i < len(h.bounds) && !(h.bounds[i] >= v) {
		i++
	}
	if h.buffered {
		h.pending[i]++
		h.sum += v
		return
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a virtual duration in seconds. Below a second
// d.Seconds() is exactly float64(d)/1e9, which skips its integer split.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d > -time.Second && d < time.Second {
		h.Observe(float64(d) / 1e9)
		return
	}
	h.Observe(d.Seconds())
}

// Buckets returns the published per-bucket counts, not cumulative: one
// per bound in ascending order, then +Inf.
func (h *Histogram) Buckets() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Count returns the number of published observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the published sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

func (h *Histogram) describe() *desc { return &h.d }
func (h *Histogram) typ() string     { return "histogram" }

func (h *Histogram) zero() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sumBits.Store(0)
	clear(h.pending)
	h.sum = 0
}

func (h *Histogram) setBuffered(on bool) {
	if on {
		h.sum = h.Sum()
	}
	h.buffered = on
}

// publish folds the pending bucket counts as integer deltas and stores
// the running sum.
func (h *Histogram) publish() {
	var n uint64
	for i, p := range h.pending {
		if p != 0 {
			h.buckets[i].Add(p)
			h.pending[i] = 0
			n += p
		}
	}
	if n != 0 {
		h.count.Add(n)
		h.sumBits.Store(math.Float64bits(h.sum))
	}
}

func (h *Histogram) jsonValue() any {
	type bucket struct {
		LE    float64 `json:"le"`
		Count uint64  `json:"count"`
	}
	var (
		out []bucket
		cum uint64
	)
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		out = append(out, bucket{LE: b, Count: cum})
	}
	return map[string]any{
		"count":   h.Count(),
		"sum":     h.Sum(),
		"buckets": out,
	}
}

func (h *Histogram) writeProm(w io.Writer) error {
	base := h.d.name
	// Re-render labels with le appended per bucket.
	var cum uint64
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		if err := h.writeBucket(w, formatFloat(b), cum); err != nil {
			return err
		}
	}
	cum += h.buckets[len(h.bounds)].Load()
	if err := h.writeBucket(w, "+Inf", cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", base, h.d.labelString(), formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", base, h.d.labelString(), h.Count())
	return err
}

func (h *Histogram) writeBucket(w io.Writer, le string, cum uint64) error {
	var sb strings.Builder
	sb.WriteByte('{')
	for _, l := range h.d.labels {
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteString(`",`)
	}
	sb.WriteString(`le="`)
	sb.WriteString(le)
	sb.WriteString(`"}`)
	_, err := fmt.Fprintf(w, "%s_bucket%s %d\n", h.d.name, sb.String(), cum)
	return err
}

// formatFloat renders a float compactly and deterministically.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// --- Export ----------------------------------------------------------------

// snapshot returns the registered metrics sorted by name then label key,
// giving deterministic export order regardless of registration order.
func (r *Registry) snapshot() []metric {
	r.mu.Lock()
	out := make([]metric, len(r.metrics))
	copy(out, r.metrics)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		di, dj := out[i].describe(), out[j].describe()
		if di.name != dj.name {
			return di.name < dj.name
		}
		return di.key() < dj.key()
	})
	return out
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4). Series sharing a name emit one HELP/TYPE header.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	prevName := ""
	for _, m := range r.snapshot() {
		d := m.describe()
		if d.name != prevName {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", d.name, d.help, d.name, m.typ()); err != nil {
				return err
			}
			prevName = d.name
		}
		if err := m.writeProm(w); err != nil {
			return err
		}
	}
	return nil
}

// jsonMetric is one series in the JSON snapshot.
type jsonMetric struct {
	Name   string            `json:"name"`
	Type   string            `json:"type"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  any               `json:"value"`
}

// WriteJSON writes a machine-readable snapshot: the virtual timestamp and
// every series, sorted.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	doc := struct {
		VirtualTimeMicros int64        `json:"virtualTimeMicros"`
		Metrics           []jsonMetric `json:"metrics"`
	}{VirtualTimeMicros: int64(r.Now() / time.Microsecond)}
	for _, m := range r.snapshot() {
		d := m.describe()
		jm := jsonMetric{Name: d.name, Type: m.typ(), Value: m.jsonValue()}
		if len(d.labels) > 0 {
			jm.Labels = make(map[string]string, len(d.labels))
			for _, l := range d.labels {
				jm.Labels[l.Key] = l.Value
			}
		}
		doc.Metrics = append(doc.Metrics, jm)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
