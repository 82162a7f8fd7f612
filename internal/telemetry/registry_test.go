package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterNilSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(7)
	if c.Value() != 0 {
		t.Fatal("nil counter must read zero")
	}
	var g *Gauge
	g.Set(3.5)
	if g.Value() != 0 {
		t.Fatal("nil gauge must read zero")
	}
	var h *Histogram
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram must read zero")
	}
}

func TestNilRegistryReturnsNilMetrics(t *testing.T) {
	var r *Registry
	if r.Counter("x", "") != nil || r.Gauge("y", "") != nil ||
		r.Histogram("z", "", DurationBuckets) != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	r.Advance(time.Second)
	if r.Now() != 0 {
		t.Fatal("nil registry Now must be zero")
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("frames_total", "frames", Label{"bus", "can"})
	b := r.Counter("frames_total", "frames", Label{"bus", "can"})
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	c := r.Counter("frames_total", "frames", Label{"bus", "other"})
	if a == c {
		t.Fatal("different labels must return a different counter")
	}
	a.Add(2)
	if b.Value() != 2 {
		t.Fatalf("shared counter = %d, want 2", b.Value())
	}
}

func TestCounterGaugeHistogramValues(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d", c.Value())
	}
	g := r.Gauge("g", "")
	g.Set(-2.5)
	if g.Value() != -2.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
	h := r.Histogram("h_seconds", "", []float64{0.01, 0.1, 1})
	h.Observe(0.25)
	h.Observe(0.5)
	h.Observe(50) // above the top bound: +Inf bucket only
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); got != 50.75 {
		t.Fatalf("sum = %v", got)
	}
	if got := fmt.Sprint(h.Buckets()); got != "[0 0 2 1]" {
		t.Fatalf("buckets = %s, want [0 0 2 1]", got)
	}
}

// TestAdvanceConcurrentWriters pins Advance as a running maximum under
// concurrent direct-mode writers, as a fleet's workers each advance the
// shared clock: once Advance(v) returns, Now() is at least v for every
// caller, and the clock ends at the largest time any writer reported.
func TestAdvanceConcurrentWriters(t *testing.T) {
	const writers, steps = 4, 20000
	r := NewRegistry()
	var (
		wg       sync.WaitGroup
		backward atomic.Int64
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				v := time.Duration(i*writers + w)
				r.Advance(v)
				if r.Now() < v {
					backward.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := backward.Load(); n > 0 {
		t.Errorf("the clock fell below a returned Advance %d times", n)
	}
	if want := time.Duration(steps*writers - 1); r.Now() != want {
		t.Errorf("clock = %d after concurrent writers, want %d", r.Now(), want)
	}
}

// TestHistogramBucketIndex checks Observe's linear bucket scan against
// sort.SearchFloat64s, the search it replaced, on the edge values: NaN,
// ±Inf, each exact bound and the points just either side of it, in both
// write modes.
func TestHistogramBucketIndex(t *testing.T) {
	bounds := []float64{-1, 0, 0.00025, 0.5, 1}
	values := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -math.MaxFloat64, math.MaxFloat64}
	for _, b := range bounds {
		values = append(values, b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)))
	}
	for _, buffered := range []bool{false, true} {
		for _, v := range values {
			r := NewRegistry()
			h := r.Histogram("h", "", bounds)
			if buffered {
				r.Buffer()
			}
			h.Observe(v)
			r.Flush()
			want := sort.SearchFloat64s(h.bounds, v)
			for i := range h.buckets {
				n := uint64(0)
				if i == want {
					n = 1
				}
				if got := h.buckets[i].Load(); got != n {
					t.Fatalf("buffered=%v: Observe(%v) left bucket %d at %d, want the sample in bucket %d",
						buffered, v, i, got, want)
				}
			}
		}
	}
}

// TestObserveDurationMatchesSeconds checks ObserveDuration's sub-second
// fast path records exactly d.Seconds(), so histogram sums stay
// bit-identical.
func TestObserveDurationMatchesSeconds(t *testing.T) {
	ds := []time.Duration{0, 1, -1, 222 * time.Microsecond, time.Second - 1, -time.Second + 1,
		time.Second, -time.Second, time.Second + 1, 90 * time.Minute}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		ds = append(ds, time.Duration(rng.Int63n(int64(2*time.Second)))-time.Second)
	}
	for _, d := range ds {
		r := NewRegistry()
		h := r.Histogram("h", "", nil)
		h.ObserveDuration(d)
		if got, want := h.Sum(), d.Seconds(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ObserveDuration(%v) recorded %v, want %v", d, got, want)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "second metric", Label{"bus", "can"}).Add(3)
	r.Counter("a_total", "first metric").Inc()
	r.Gauge("load_ratio", "bus load").Set(0.25)
	h := r.Histogram("tx_seconds", "wire time", []float64{0.001, 0.01})
	h.Observe(0.0009765625) // 2^-10: exact in binary, stable sum output
	h.Observe(0.5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP a_total first metric\n# TYPE a_total counter\na_total 1\n",
		"b_total{bus=\"can\"} 3\n",
		"# TYPE load_ratio gauge\nload_ratio 0.25\n",
		"tx_seconds_bucket{le=\"0.001\"} 1\n",
		"tx_seconds_bucket{le=\"+Inf\"} 2\n",
		"tx_seconds_sum 0.5009765625\n",
		"tx_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Output is sorted: a_total before b_total before load_ratio.
	if strings.Index(out, "a_total") > strings.Index(out, "b_total") {
		t.Fatal("metrics must be name-sorted")
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("frames_total", "", Label{"bus", "can"}).Add(4)
	r.Advance(1500 * time.Millisecond)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		VirtualTimeMicros int64 `json:"virtualTimeMicros"`
		Metrics           []struct {
			Name   string            `json:"name"`
			Type   string            `json:"type"`
			Labels map[string]string `json:"labels,omitempty"`
			Value  any               `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.VirtualTimeMicros != 1500000 {
		t.Fatalf("virtualTimeMicros = %d", doc.VirtualTimeMicros)
	}
	if len(doc.Metrics) != 1 || doc.Metrics[0].Name != "frames_total" ||
		doc.Metrics[0].Labels["bus"] != "can" {
		t.Fatalf("metrics = %+v", doc.Metrics)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("weird_total", "", Label{"k", "a\"b\\c\nd"}).Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `weird_total{k="a\"b\\c\nd"} 1`) {
		t.Fatalf("bad escaping:\n%s", buf.String())
	}
}

// TestConcurrentScrapeWhileWriting scrapes while one goroutine writes,
// on the direct atomic path and on the buffered single-writer path (with
// checkpoints); under -race it pins that readers only load published
// state.
func TestConcurrentScrapeWhileWriting(t *testing.T) {
	for _, buffered := range []bool{false, true} {
		t.Run(fmt.Sprint("buffered=", buffered), func(t *testing.T) {
			r := NewRegistry()
			c := r.Counter("spin_total", "")
			h := r.Histogram("spin_seconds", "", DurationBuckets)
			g := r.Gauge("spin", "")
			// A view reads a plain count, so only a buffered writer may
			// keep one under a live scrape.
			var owned uint64
			if buffered {
				r.CounterView(&owned, "owned_total", "")
			}
			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				if buffered {
					r.Buffer()
					defer r.Flush()
				}
				for n := uint64(1); ; n++ {
					select {
					case <-done:
						return
					default:
						c.Inc()
						if buffered {
							owned++
						}
						g.Set(float64(n))
						h.Observe(0.001)
						r.Advance(time.Duration(n))
						if n%64 == 0 {
							r.Publish()
						}
					}
				}
			}()
			for i := 0; i < 50; i++ {
				var buf bytes.Buffer
				if err := r.WritePrometheus(&buf); err != nil {
					t.Fatal(err)
				}
				if err := r.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
			}
			close(done)
			wg.Wait()
			if buffered && !strings.Contains(exposition(t, r), fmt.Sprintf("owned_total %d\n", c.Value())) {
				t.Fatalf("view after Flush does not read %d:\n%s", c.Value(), exposition(t, r))
			}
			if c.Value() != h.Count() || uint64(g.Value()) != c.Value() || uint64(r.Now()) != c.Value() {
				t.Fatalf("after the writer stopped: counter %d, histogram count %d, gauge %v, now %d",
					c.Value(), h.Count(), g.Value(), r.Now())
			}
		})
	}
}

// regFixture is one registry with a fixed set of series, registered in
// the same order on every instance.
type regFixture struct {
	r  *Registry
	cs []*Counter
	gs []*Gauge
	hs []*Histogram
	// vs are counts the fixture owns, behind counter views.
	vs [2]uint64
}

func newRegFixture() *regFixture {
	r := NewRegistry()
	f := &regFixture{r: r}
	for _, port := range []string{"a", "b", "c"} {
		f.cs = append(f.cs, r.Counter("frames_total", "frames", Label{"port", port}))
	}
	f.cs = append(f.cs, r.Counter("errors_total", "errors"))
	f.gs = append(f.gs, r.Gauge("load_ratio", "load"), r.Gauge("state", "state", Label{"port", "a"}))
	f.hs = append(f.hs,
		r.Histogram("wire_seconds", "wire time", nil),
		r.Histogram("size_bytes", "size", []float64{1, 4, 8}, Label{"bus", "x"}))
	r.CounterView(&f.vs[0], "owned_total", "owned", Label{"port", "a"})
	r.CounterView(&f.vs[1], "owned_total", "owned", Label{"port", "b"})
	return f
}

// reset zeroes the plane and, as every reset recipe does, the counts
// its views read.
func (f *regFixture) reset() {
	f.r.Reset()
	f.vs = [2]uint64{}
}

// regOp is one hot-path write, applied identically to several fixtures.
type regOp struct {
	kind, i int
	n       uint64
	v       float64
	at      time.Duration
}

func randomRegOp(rng *rand.Rand, step int) regOp {
	o := regOp{kind: rng.Intn(6), i: rng.Intn(4), n: uint64(rng.Intn(5)), at: time.Duration(step * 1000)}
	// Values that are not exact in binary, spread over every bucket, so a
	// reordered float sum shows up in _sum.
	o.v = rng.ExpFloat64() * []float64{0.0003, 0.002, 3}[rng.Intn(3)]
	if rng.Intn(50) == 0 {
		o.at -= 5000 // an out-of-order Advance must not move the clock back
	}
	return o
}

func (f *regFixture) apply(o regOp) {
	switch o.kind {
	case 0:
		f.cs[o.i].Inc()
	case 1:
		f.cs[o.i].Add(o.n)
	case 2:
		f.gs[o.i%len(f.gs)].Set(o.v)
	case 3:
		f.hs[o.i%len(f.hs)].Observe(o.v)
	case 4:
		f.r.Advance(o.at)
	case 5:
		f.vs[o.i%len(f.vs)] += o.n + 1
	}
}

// exposition renders both export formats.
func exposition(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestRegistryBufferedMatchesModel applies one seeded write sequence to a
// direct-mode registry (the model) and to a buffered one that publishes
// every foldEvery writes, with a Reset and a Flush/Buffer cycle mid-run.
// Between folds the buffered registry must export exactly the model's
// exposition as of the last fold — later writes invisible — and after
// each fold, and after the final Flush, exactly the model's current bytes
// (histogram _sum included).
func TestRegistryBufferedMatchesModel(t *testing.T) {
	const ops = 3000
	for _, foldEvery := range []int{1, 7, 256, 1001, ops} {
		t.Run(fmt.Sprint("foldEvery=", foldEvery), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(foldEvery)))
			model, buf := newRegFixture(), newRegFixture()
			buf.r.Buffer()
			published := exposition(t, model.r)
			for i := 0; i < ops; i++ {
				o := randomRegOp(rng, i)
				model.apply(o)
				buf.apply(o)
				if i%37 == 0 {
					if got := exposition(t, buf.r); got != published {
						t.Fatalf("op %d: mid-run read is not the last fold:\n%s\nwant:\n%s", i, got, published)
					}
				}
				folded := (i+1)%foldEvery == 0
				if folded {
					buf.r.Publish()
				}
				if i == ops/2 {
					// Unpublished writes are dropped with the published ones.
					model.reset()
					buf.reset()
					folded = true
				}
				if i == 2*ops/3 {
					buf.r.Flush()
					buf.r.Buffer()
					folded = true
				}
				if !folded {
					continue
				}
				published = exposition(t, model.r)
				if got := exposition(t, buf.r); got != published {
					t.Fatalf("op %d: after the fold:\n%s\nwant:\n%s", i, got, published)
				}
			}
			buf.r.Flush()
			if got, want := exposition(t, buf.r), exposition(t, model.r); got != want {
				t.Fatalf("after Flush:\n%s\nwant:\n%s", got, want)
			}
			// Flushed, writes are direct again: visible without a fold.
			o := regOp{kind: 3, v: 0.1}
			model.apply(o)
			buf.apply(o)
			if got, want := exposition(t, buf.r), exposition(t, model.r); got != want {
				t.Fatalf("write after Flush not direct:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

func TestRegistryResetDiscardsUnpublished(t *testing.T) {
	f := newRegFixture()
	f.r.Buffer()
	f.cs[0].Add(5)
	f.gs[0].Set(2)
	f.hs[0].Observe(0.5)
	f.r.Advance(time.Second)
	f.r.Reset()
	f.r.Flush()
	if f.cs[0].Value() != 0 || f.gs[0].Value() != 0 || f.hs[0].Count() != 0 || f.hs[0].Sum() != 0 || f.r.Now() != 0 {
		t.Fatalf("Reset kept unpublished writes: counter %d gauge %v hist %d/%v now %v",
			f.cs[0].Value(), f.gs[0].Value(), f.hs[0].Count(), f.hs[0].Sum(), f.r.Now())
	}
	// A series registered while buffered starts buffered too.
	f.r.Buffer()
	late := f.r.Counter("late_total", "")
	late.Inc()
	if late.Value() != 0 {
		t.Fatal("a series registered mid-run wrote through before the fold")
	}
	f.r.Flush()
	if late.Value() != 1 {
		t.Fatalf("late counter = %d after Flush, want 1", late.Value())
	}
}

// TestCounterViewOneSource pins the one-owner rule: the same source
// registered again is a no-op, another source under the series panics
// naming it, and so does a plain counter under a view's name.
func TestCounterViewOneSource(t *testing.T) {
	r := NewRegistry()
	var a, b uint64
	r.CounterView(&a, "frames_total", "", Label{"bus", "x"})
	r.CounterView(&a, "frames_total", "", Label{"bus", "x"})
	r.CounterView(&b, "frames_total", "", Label{"bus", "y"})
	a, b = 3, 4
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# HELP frames_total \n# TYPE frames_total counter\n" +
		"frames_total{bus=\"x\"} 3\nframes_total{bus=\"y\"} 4\n"
	if buf.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", buf.String(), want)
	}
	mustPanic := func(what, want string, fn func()) {
		t.Helper()
		defer func() {
			t.Helper()
			got := fmt.Sprint(recover())
			if !strings.Contains(got, want) {
				t.Errorf("%s: panic %q, want one naming %q", what, got, want)
			}
		}()
		fn()
	}
	mustPanic("second source", "frames_total{bus=x}", func() {
		r.CounterView(&b, "frames_total", "", Label{"bus", "x"})
	})
	mustPanic("plain counter", "frames_total{bus=y}", func() {
		r.Counter("frames_total", "", Label{"bus", "y"})
	})
	var nilReg *Registry
	nilReg.CounterView(&a, "frames_total", "")
}

// TestCounterViewReadsOwner pins when a view reads its owner's count:
// at once outside buffered mode; while buffered only as of the last
// Publish, Flush or Buffer; and Reset zeroes the published copy.
func TestCounterViewReadsOwner(t *testing.T) {
	r := NewRegistry()
	var n uint64
	r.CounterView(&n, "owned_total", "")
	read := func() uint64 {
		t.Helper()
		var doc struct {
			Metrics []struct {
				Value uint64 `json:"value"`
			} `json:"metrics"`
		}
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.Metrics) != 1 {
			t.Fatalf("snapshot %s: %v", buf.String(), err)
		}
		return doc.Metrics[0].Value
	}
	n = 5
	if got := read(); got != 5 {
		t.Fatalf("direct read = %d, want 5", got)
	}
	if !r.Buffer() || r.Buffer() {
		t.Fatal("Buffer must report that the first call opened the run and the second did not")
	}
	n = 9
	if got := read(); got != 5 {
		t.Fatalf("buffered read before Publish = %d, want the count at Buffer, 5", got)
	}
	r.Publish()
	if got := read(); got != 9 {
		t.Fatalf("after Publish = %d, want 9", got)
	}
	n = 12
	r.Reset()
	if got := read(); got != 0 {
		t.Fatalf("after Reset = %d, want 0", got)
	}
	r.Flush()
	if got := read(); got != 12 {
		t.Fatalf("after Flush = %d, want 12", got)
	}
	n = 13
	if got := read(); got != 13 {
		t.Fatalf("direct read after Flush = %d, want 13", got)
	}
	// A view registered mid-run publishes the count it reads at once.
	r.Buffer()
	m := uint64(2)
	r.CounterView(&m, "late_total", "")
	m = 3
	r.Flush()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "late_total 3\n") {
		t.Fatalf("late view after Flush:\n%s", buf.String())
	}
}

func TestRegistryBufferedZeroAlloc(t *testing.T) {
	f := newRegFixture()
	f.r.Buffer()
	defer f.r.Flush()
	n := 0
	allocs := testing.AllocsPerRun(1000, func() {
		n++
		f.cs[0].Inc()
		f.cs[1].Add(3)
		f.gs[0].Set(0.5)
		f.hs[0].ObserveDuration(250 * time.Microsecond)
		f.r.Advance(time.Duration(n))
		if n%256 == 0 {
			f.r.Publish()
		}
	})
	if allocs != 0 {
		t.Fatalf("buffered writes allocate %.1f per op", allocs)
	}
}

func TestGaugeFuncEvaluatedAtExport(t *testing.T) {
	r := NewRegistry()
	v := 1.5
	r.GaugeFunc("live_value", "computed on read", func() float64 { return v })
	r.Reset() // holds no state: nothing to zero
	v = 4
	if out := exposition(t, r); !strings.Contains(out, "# TYPE live_value gauge\nlive_value 4\n") ||
		!strings.Contains(out, `"value": 4`) {
		t.Fatalf("gauge func not evaluated at export:\n%s", out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		1:      "1",
		0.25:   "0.25",
		1e9:    "1000000000",
		0.0001: "0.0001",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Fatalf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
