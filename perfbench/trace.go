package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/core"
)

// interval is one timed call, in nanoseconds since a tracer's epoch.
type interval struct{ start, end int64 }

// selfTime subtracts from a parent span the part of it its child spans
// cover. Children are clipped to the parent and overlapping children are
// merged, so covered never exceeds the parent; sum is the children's raw
// total, which equals covered exactly when the children are disjoint and
// lie inside the parent.
func selfTime(parent interval, children []interval) (self, covered, sum int64) {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		sum += c.end - c.start
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var cur interval
	open := false
	for _, c := range cs {
		switch {
		case !open:
			cur, open = c, true
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if open {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered, covered, sum
}

// layerStat accumulates one layer's busy time and call count; samples
// keeps per-call durations for layers whose percentiles are reported.
// Sampled layers (frame-source calls) time only some calls: sampled of
// their calls took sampledNs.
type layerStat struct {
	ns, calls          int64
	samples            []float64
	sampled, sampledNs int64
}

// tracer records trial spans and the spans and per-call time of the layers
// below them, all from the benchmark's own wrappers around public calls.
// A trial's self time is its span minus what its child spans cover, minus
// the time of the sampled calls made inside it. The integrity check
// demands that child spans never overlap or escape their trial, and that
// the sampled calls fit in the time the child spans leave, so self time
// plus children accounts for every trial span.
type tracer struct {
	epoch time.Time

	mu       sync.Mutex
	open     bool
	trial    interval
	children []interval

	layers map[string]*layerStat
	trials int
	spanNs int64 // summed trial spans
	leftNs int64 // summed trial spans minus the time their child spans cover
	broken []string
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), layers: map[string]*layerStat{}} }

// reset drops everything recorded so far (a set-up's warm-up).
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.epoch = time.Now()
	t.open, t.children = false, nil
	t.layers = map[string]*layerStat{}
	t.trials, t.spanNs, t.leftNs, t.broken = 0, 0, 0, nil
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) layer(name string) *layerStat {
	l := t.layers[name]
	if l == nil {
		l = &layerStat{}
		t.layers[name] = l
	}
	return l
}

// beginTrial opens a trial span at start unless one is already open.
func (t *tracer) beginTrial(start int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.open {
		t.open, t.trial, t.children = true, interval{start: start}, t.children[:0]
	}
}

// span records one child call of the open trial and its duration sample;
// outside a trial it only feeds the layer's totals.
func (t *tracer) span(name string, start, end int64, keepSample bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.note(name, end-start, keepSample)
	if t.open {
		t.children = append(t.children, interval{start, end})
	}
}

// record feeds a layer's totals without making the call a child of the
// open trial: calls that run on another goroutine (server handlers nested
// inside a client round trip, heartbeats) must not be subtracted twice.
func (t *tracer) record(name string, d int64, keepSample bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.note(name, d, keepSample)
}

func (t *tracer) note(name string, d int64, keepSample bool) {
	l := t.layer(name)
	l.ns += d
	l.calls++
	if keepSample {
		l.samples = append(l.samples, float64(d))
	}
}

// addCalls records a batch of sampled calls made inside trials (frame
// generation, guided feedback): calls in all, sampled of them timed at
// sampledNs in total. Their busy time is estimated over all trials at
// once, because a short trial holds only a few samples.
func (t *tracer) addCalls(name string, calls, sampled, sampledNs int64) {
	if calls == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.layer(name)
	l.calls += calls
	l.sampled += sampled
	l.sampledNs += sampledNs
}

// endTrial closes the open trial at end.
func (t *tracer) endTrial(end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.open {
		return
	}
	t.open = false
	t.trial.end = end
	left, covered, sum := selfTime(t.trial, t.children)
	if covered != sum {
		t.broken = append(t.broken, fmt.Sprintf(
			"trial %d: span %dns, children cover %dns of %dns summed",
			t.trials, t.trial.end-t.trial.start, covered, sum))
	}
	t.trials++
	t.spanNs += t.trial.end - t.trial.start
	t.leftNs += left
}

// discardOpen drops a trial span that never closed (the service worker's
// final re-poll after its campaign drained).
func (t *tracer) discardOpen() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.open = false
}

// nsPerCall is a layer's mean busy time per call (0 when never called).
// For a sampled layer it is the mean sampled call minus the calibrated
// cost of the clock pair around it.
func (t *tracer) nsPerCall(name string) float64 {
	l := t.layers[name]
	switch {
	case l == nil || l.calls == 0:
		return 0
	case l.sampled > 0:
		return math.Max(0, float64(l.sampledNs)/float64(l.sampled)-clockPairNs)
	default:
		return float64(l.ns) / float64(l.calls)
	}
}

// selfNs is the summed self time of all trials: what the child spans leave
// of the trial spans, minus the estimated time of the sampled calls.
func (t *tracer) selfNs() float64 {
	self := float64(t.leftNs)
	for name, l := range t.layers {
		if l.sampled > 0 {
			self -= t.nsPerCall(name) * float64(l.calls)
		}
	}
	return self
}

func (t *tracer) calls(name string) int64 {
	if l := t.layers[name]; l != nil {
		return l.calls
	}
	return 0
}

func (t *tracer) samples(name string) []float64 {
	if l := t.layers[name]; l != nil {
		return l.samples
	}
	return nil
}

// integrity checks that the recorded spans account for every trial span:
// no child span escaped its trial or overlapped another, and the sampled
// calls fit in the time the child spans leave.
func (t *tracer) integrity() error {
	if len(t.broken) > 0 {
		return fmt.Errorf("%d trials with unaccounted spans, first: %s", len(t.broken), t.broken[0])
	}
	if self := t.selfNs(); self < 0 {
		return fmt.Errorf("sampled calls take %.0fns more than the %dns the child spans leave of %dns of trials",
			-self, t.leftNs, t.spanNs)
	}
	return nil
}

// sampleEvery is how often the frame-source adapters time a call. Reading
// the clock costs far more than one frame draw on some hosts (about 190 ns
// a pair where a draw takes tens), so timing every call would measure the
// clock; timing one call in sampleEvery, minus the calibrated cost of the
// clock pair itself, keeps the traced run close to the untraced one.
const sampleEvery = 64

// clockPairNs is the calibrated cost of an empty time.Now/time.Since pair,
// subtracted from each sampled call.
var clockPairNs float64

// calibrateClock measures clockPairNs: the median over batches of the mean
// duration of an empty timed region.
func calibrateClock() {
	const batches, perBatch = 15, 20000
	means := make([]float64, batches)
	for b := range means {
		var sum int64
		for i := 0; i < perBatch; i++ {
			t0 := time.Now()
			sum += int64(time.Since(t0))
		}
		means[b] = float64(sum) / perBatch
	}
	clockPairNs = median(means)
}

// sampler times one call in sampleEvery.
type sampler struct {
	calls, sampled, sampledNs int64
}

// due counts a call and reports whether to time it.
func (s *sampler) due() bool {
	s.calls++
	return s.calls%sampleEvery == 0
}

func (s *sampler) add(t0 time.Time) {
	s.sampled++
	s.sampledNs += int64(time.Since(t0))
}

// flush hands the counts to the tracer and starts over.
func (s *sampler) flush(t *tracer, name string) {
	t.addCalls(name, s.calls, s.sampled, s.sampledNs)
	*s = sampler{}
}

// timedGen is the blind-mode frame source installed by the traced run: it
// serves the campaign's own generator, so the frame stream is unchanged,
// and samples the draw time.
type timedGen struct {
	gen *core.Generator
	s   sampler
}

func (g *timedGen) Next() (can.Frame, bool) {
	if !g.s.due() {
		return g.gen.Next(), true
	}
	t0 := time.Now()
	f := g.gen.Next()
	g.s.add(t0)
	return f, true
}

func (g *timedGen) Observe(bus.Message) {}

func (g *timedGen) flush(t *tracer) { g.s.flush(t, "core.gen") }

// timedSource wraps an external frame source (the guided engine) and
// samples both directions of its feedback loop.
type timedSource struct {
	inner         core.FrameSource
	next, observe sampler
}

func (s *timedSource) Next() (can.Frame, bool) {
	if !s.next.due() {
		return s.inner.Next()
	}
	t0 := time.Now()
	f, ok := s.inner.Next()
	s.next.add(t0)
	return f, ok
}

func (s *timedSource) Observe(m bus.Message) {
	if !s.observe.due() {
		s.inner.Observe(m)
		return
	}
	t0 := time.Now()
	s.inner.Observe(m)
	s.observe.add(t0)
}

func (s *timedSource) flush(t *tracer) {
	s.next.flush(t, "guided.next")
	s.observe.flush(t, "guided.observe")
}

// instrument installs the traced run's frame-source adapter on a freshly
// built campaign and returns its flush function.
func instrument(c *core.Campaign) func(*tracer) {
	if src := c.FrameSource(); src != nil {
		ts := &timedSource{inner: src}
		c.SetFrameSource(ts)
		return ts.flush
	}
	tg := &timedGen{gen: c.Generator()}
	c.SetFrameSource(tg)
	return tg.flush
}
