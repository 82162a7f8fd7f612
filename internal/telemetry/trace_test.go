package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Kind: EvTx})
	tr.Buffer()
	tr.Rec(tr.Site(EvTx, "fuzzer", "tx"), 0, 0, 0x215, 1)
	tr.Flush()
	tr.Reset()
	if tr.Site(EvTx, "fuzzer", "tx") != (Site{}) {
		t.Fatal("nil tracer interned a site")
	}
	if tr.Total() != 0 || tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer must be inert")
	}
}

func TestTracerRingOverwritesOldest(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Kind: EvTx, At: time.Duration(i)})
	}
	if tr.Total() != 5 || tr.Len() != 3 {
		t.Fatalf("total=%d len=%d", tr.Total(), tr.Len())
	}
	got := tr.Events()
	for i, want := range []time.Duration{2, 3, 4} {
		if got[i].At != want {
			t.Fatalf("event %d at %v, want %v (oldest-first order broken)", i, got[i].At, want)
		}
	}
}

// traceModel is the reference the buffered tracer is checked against:
// every event ever emitted, how many of them are published, and how many
// buffered ones are waiting for the next batch.
type traceModel struct {
	all      []Event
	pub      int
	pending  int
	buffered bool
}

func (m *traceModel) emit(e Event) {
	m.all = append(m.all, e)
	if !m.buffered {
		m.pub = len(m.all)
		return
	}
	if m.pending++; m.pending == traceSlack {
		m.pub, m.pending = len(m.all), 0
	}
}

func (m *traceModel) flush() {
	if m.buffered {
		m.pub, m.pending, m.buffered = len(m.all), 0, false
	}
}

// check compares every read the tracer offers with the model.
func (m *traceModel) check(t *testing.T, tr *Tracer, capacity int, where string) {
	t.Helper()
	if got := tr.Total(); got != uint64(m.pub) {
		t.Fatalf("%s: Total = %d, want %d", where, got, m.pub)
	}
	want := m.all[max(0, m.pub-capacity):m.pub]
	if got := tr.Len(); got != len(want) {
		t.Fatalf("%s: Len = %d, want %d", where, got, len(want))
	}
	got := tr.Events()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", where, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d = %+v, want %+v", where, i, got[i], want[i])
		}
	}
}

// TestTracerBufferedMatchesModel drives a small ring far past its
// capacity and across many slack boundaries, switching between buffered
// and locked mode at various points, and checks every read after every
// step against the reference model.
func TestTracerBufferedMatchesModel(t *testing.T) {
	const capacity, events = 8, 1000
	for _, flushEvery := range []int{1, 7, 255, 256, 257, 300, 511, events} {
		t.Run(fmt.Sprint("flushEvery=", flushEvery), func(t *testing.T) {
			tr := NewTracer(capacity)
			var sites [13]Site
			for k := range sites {
				sites[k] = tr.Site(EventKind(k), "a", "n")
			}
			var m traceModel
			for i := 0; i < events; i++ {
				if i%flushEvery == 0 && (i/flushEvery)%3 != 1 {
					// Most periods start a buffered stretch; every third
					// one stays on the locked path.
					tr.Buffer()
					m.buffered = true
				}
				e := Event{At: time.Duration(i), Dur: time.Duration(i % 3), Kind: EventKind(1 + i%12), Actor: "a", Name: "n", ID: uint32(i), N: uint64(i)}
				// Events via Emit, each with its own Detail, and events
				// via Rec, which have none, share slots as the ring wraps
				// (5 does not divide the ring size), so a detail that
				// outlives its event shows up on a Rec event.
				if i%5 < 2 {
					e.Detail = fmt.Sprint("detail ", i)
					tr.Emit(e)
				} else {
					tr.Rec(sites[e.Kind], e.At, e.Dur, e.ID, e.N)
				}
				m.emit(e)
				m.check(t, tr, capacity, fmt.Sprintf("after event %d", i))
				if (i+1)%flushEvery == 0 {
					tr.Flush()
					m.flush()
					m.check(t, tr, capacity, fmt.Sprintf("flush after event %d", i))
				}
			}
			tr.Flush()
			m.flush()
			m.check(t, tr, capacity, "final flush")
		})
	}
}

func TestTracerExactAfterFlush(t *testing.T) {
	tr := NewTracer(8)
	tr.Buffer()
	for i := 0; i < 300; i++ {
		tr.Emit(Event{Kind: EvTx, N: uint64(i)})
	}
	if got := tr.Total(); got != traceSlack {
		t.Fatalf("Total before Flush = %d, want the %d published", got, traceSlack)
	}
	tr.Flush()
	if tr.Total() != 300 || tr.Len() != 8 {
		t.Fatalf("after Flush total=%d len=%d, want 300/8", tr.Total(), tr.Len())
	}
	for i, e := range tr.Events() {
		if e.N != uint64(292+i) {
			t.Fatalf("event %d has N=%d, want %d", i, e.N, 292+i)
		}
	}
}

func TestTracerResetDiscardsUnpublishedTail(t *testing.T) {
	tr := NewTracer(8)
	tr.Buffer()
	for i := 0; i < 100; i++ {
		tr.Emit(Event{Kind: EvTx, N: uint64(i)})
	}
	tr.Reset()
	tr.Flush()
	if tr.Total() != 0 || tr.Len() != 0 || len(tr.Events()) != 0 {
		t.Fatalf("Reset kept events: total=%d len=%d", tr.Total(), tr.Len())
	}
	tr.Buffer()
	for i := 0; i < 3; i++ {
		tr.Emit(Event{Kind: EvTx, N: uint64(1000 + i)})
	}
	tr.Flush()
	got := tr.Events()
	if len(got) != 3 || got[0].N != 1000 || got[2].N != 1002 {
		t.Fatalf("events after Reset = %+v, want N 1000..1002", got)
	}
}

// TestTracerConcurrentReadsWhileBuffered has the owner emit in buffered
// mode while another goroutine reads every view in a loop. Under -race
// this proves the writer never touches a slot a reader copies; the
// assertions prove each snapshot is a contiguous window of the sequence.
func TestTracerConcurrentReadsWhileBuffered(t *testing.T) {
	const capacity, events = 64, 50000
	tr := NewTracer(capacity)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastTotal uint64
		for {
			select {
			case <-done:
				return
			default:
			}
			total := tr.Total()
			if total < lastTotal {
				t.Errorf("Total went backwards: %d after %d", total, lastTotal)
				return
			}
			lastTotal = total
			evs := tr.Events()
			if len(evs) > capacity {
				t.Errorf("snapshot of %d events exceeds capacity %d", len(evs), capacity)
				return
			}
			for i := 1; i < len(evs); i++ {
				if evs[i].N != evs[i-1].N+1 {
					t.Errorf("snapshot not contiguous at %d: N %d then %d", i, evs[i-1].N, evs[i].N)
					return
				}
			}
			if n := len(evs); n > 0 && (evs[n-1].N+1 < total || n != min(int(evs[n-1].N+1), capacity)) {
				t.Errorf("snapshot ends at N=%d with %d events; Total was %d", evs[n-1].N, n, total)
				return
			}
			_ = tr.Len()
			if err := tr.WriteChromeTrace(io.Discard); err != nil {
				t.Errorf("WriteChromeTrace: %v", err)
				return
			}
		}
	}()
	tx := tr.Site(EvTx, "fuzzer", "tx")
	tr.Buffer()
	for i := 0; i < events; i++ {
		tr.Rec(tx, time.Duration(i), 0, 0x215, uint64(i))
	}
	tr.Flush()
	close(done)
	wg.Wait()
	if tr.Total() != events {
		t.Fatalf("Total = %d after Flush, want %d", tr.Total(), events)
	}
}

// TestTracerUnwrittenHoldsNoRing checks the ring is allocated only when
// the tracer is first buffered or first records: one that never does
// holds no ring and reads as empty.
func TestTracerUnwrittenHoldsNoRing(t *testing.T) {
	tr := NewTracer(0)
	tr.Flush()
	tr.Reset()
	if tr.buf != nil {
		t.Fatalf("unwritten tracer holds a %d-slot ring", len(tr.buf))
	}
	if tr.Len() != 0 || tr.Total() != 0 || len(tr.Events()) != 0 {
		t.Fatal("unwritten tracer is not empty")
	}
	var out bytes.Buffer
	if err := tr.WriteChromeTrace(&out); err != nil {
		t.Fatal(err)
	}
	var doc struct{ TraceEvents []json.RawMessage }
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil || len(doc.TraceEvents) != 0 {
		t.Fatalf("empty trace = %s (err %v), want no events", out.Bytes(), err)
	}
	tr.Emit(Event{Kind: EvOracle})
	if len(tr.buf) != DefaultTraceCapacity+traceSlack || tr.Len() != 1 {
		t.Fatalf("after one record: ring %d slots, Len %d", len(tr.buf), tr.Len())
	}
	buffered := NewTracer(8)
	buffered.Buffer()
	if len(buffered.buf) != 8+traceSlack {
		t.Fatalf("buffered tracer holds a %d-slot ring, want %d", len(buffered.buf), 8+traceSlack)
	}
}

// TestTracerFirstRecordRacesReader has the owner allocate the ring, by
// buffering or by its first locked-mode record, while another goroutine
// reads the tracer. Under -race it proves the allocation is published
// safely.
func TestTracerFirstRecordRacesReader(t *testing.T) {
	for round := 0; round < 200; round++ {
		tr := NewTracer(16)
		tx := tr.Site(EvTx, "fuzzer", "tx")
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 3; i++ {
				if n := len(tr.Events()); n > 16 || tr.Len() > 16 {
					t.Errorf("snapshot of %d events exceeds capacity", n)
				}
				if err := tr.WriteChromeTrace(io.Discard); err != nil {
					t.Errorf("WriteChromeTrace: %v", err)
				}
			}
		}()
		close(start)
		buffered := round%2 == 0
		if buffered {
			tr.Buffer()
		}
		for i := 0; i < traceSlack+1; i++ {
			tr.Rec(tx, time.Duration(i), 0, 0, 0)
		}
		tr.Flush()
		wg.Wait()
		if tr.Total() != traceSlack+1 {
			t.Fatalf("buffered=%v: Total = %d, want %d", buffered, tr.Total(), traceSlack+1)
		}
	}
}

// TestTracerBufferedZeroAlloc pins the buffered write path — Rec, Emit
// of an already interned site, the batched publication and Flush — at
// zero allocations, and Rec at zero in locked mode too.
func TestTracerBufferedZeroAlloc(t *testing.T) {
	tr := NewTracer(64)
	dispatch := tr.Site(EvDispatch, "bcm", "dispatch")
	tr.Emit(Event{Kind: EvGenBatch, Actor: "campaign", Name: "gen-batch"})
	allocs := testing.AllocsPerRun(100, func() {
		tr.Buffer()
		for i := 0; i < 2*traceSlack; i++ {
			tr.Rec(dispatch, time.Duration(i), 0, uint32(i), 0)
		}
		tr.Emit(Event{Kind: EvGenBatch, Actor: "campaign", Name: "gen-batch"})
		tr.Flush()
		tr.Rec(dispatch, 0, 0, 0x215, 0)
	})
	if allocs != 0 {
		t.Fatalf("buffered emit + flush allocates %.1f times per run, want 0", allocs)
	}
}

// TestTraceRecLayout pins the ring slot at 32 bytes or less with no
// pointer field, so the garbage collector never scans the ring.
func TestTraceRecLayout(t *testing.T) {
	if size := unsafe.Sizeof(traceRec{}); size > 32 {
		t.Fatalf("ring slot is %d bytes, want <= 32", size)
	}
	typ := reflect.TypeOf(traceRec{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Int64, reflect.Uint64, reflect.Uint32, reflect.Uint16, reflect.Uint8, reflect.Bool:
		default:
			t.Fatalf("ring slot field %s is a %s; the slot must hold no pointers", f.Name, f.Type)
		}
	}
}

// TestTracerDetailsBounded emits far more distinct details than the
// capacity, in both write modes and interleaved with Rec events, and
// checks that the detail table keeps only the retained events' details
// while every read still matches the model after the ring wraps.
func TestTracerDetailsBounded(t *testing.T) {
	const capacity, events = 8, 3000
	for _, buffered := range []bool{false, true} {
		tr := NewTracer(capacity)
		tx := tr.Site(EvTx, "fuzzer", "tx")
		var m traceModel
		if buffered {
			tr.Buffer()
			m.buffered = true
		}
		for i := 0; i < events; i++ {
			e := Event{At: time.Duration(i), Kind: EvTx, Actor: "fuzzer", Name: "tx", ID: uint32(i)}
			if i%3 == 0 {
				tr.Rec(tx, e.At, 0, e.ID, 0)
			} else {
				e.Kind, e.Actor, e.Name, e.Detail = EvFault, "faults", "corrupt", fmt.Sprint("p=", i)
				tr.Emit(e)
			}
			m.emit(e)
			if limit := capacity + m.pending; len(tr.details) > limit {
				t.Fatalf("buffered=%v: after event %d the detail table holds %d strings, want <= %d",
					buffered, i, len(tr.details), limit)
			}
		}
		tr.Flush()
		m.flush()
		if len(tr.details) > capacity {
			t.Fatalf("buffered=%v: detail table holds %d strings, want <= capacity %d", buffered, len(tr.details), capacity)
		}
		m.check(t, tr, capacity, fmt.Sprint("buffered=", buffered))
		tr.Reset()
		if len(tr.details) != 0 {
			t.Fatalf("buffered=%v: Reset kept %d details", buffered, len(tr.details))
		}
	}
}

// TestTracerSiteTableFull fills the 16-bit site table and checks that one
// more distinct site panics, through Site and through Emit, instead of
// aliasing an existing index, while known sites still resolve.
func TestTracerSiteTableFull(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < maxSites; i++ {
		tr.Site(EvCustom, "a", fmt.Sprint(i))
	}
	if s := tr.Site(EvCustom, "a", "7"); s.idx != 7 {
		t.Fatalf("re-interned site has index %d, want 7", s.idx)
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil || !strings.Contains(fmt.Sprint(r), "site table full") {
				t.Fatalf("%s on a full site table: recovered %v, want a site-table-full panic", what, r)
			}
		}()
		f()
	}
	mustPanic("Site", func() { tr.Site(EvCustom, "a", "one too many") })
	mustPanic("Emit", func() { tr.Emit(Event{Kind: EvOracle, Actor: "campaign", Name: "new"}) })
	tr.Emit(Event{Kind: EvCustom, Actor: "a", Name: "65535", N: 1})
	if got := tr.Events(); len(got) != 1 || got[0].Name != "65535" || got[0].N != 1 {
		t.Fatalf("events after the panics = %+v", got)
	}
}

func TestWriteChromeTraceShape(t *testing.T) {
	tr := NewTracer(8)
	tr.Emit(Event{At: time.Millisecond, Dur: 222 * time.Microsecond,
		Kind: EvTx, Actor: "fuzzer", Name: "tx 0x215", ID: 0x215})
	tr.Emit(Event{At: 2 * time.Millisecond, Kind: EvOracle, Actor: "campaign",
		Name: "oracle", Detail: "unlock-ack", N: 42})

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// 2 thread_name metadata events + 2 payload events.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("events = %d", len(doc.TraceEvents))
	}
	meta := doc.TraceEvents[0]
	if meta.Name != "thread_name" || meta.Ph != "M" || meta.Args["name"] != "fuzzer" {
		t.Fatalf("metadata event wrong: %+v", meta)
	}
	tx := doc.TraceEvents[2]
	if tx.Ph != "X" || tx.Cat != "tx" || tx.Ts != 1000 || tx.Dur != 222 || tx.Tid != 1 {
		t.Fatalf("tx event wrong: %+v", tx)
	}
	inst := doc.TraceEvents[3]
	if inst.Ph != "i" || inst.S != "t" || inst.Cat != "oracle" ||
		inst.Args["detail"] != "unlock-ack" || inst.Args["n"] != float64(42) {
		t.Fatalf("instant event wrong: %+v", inst)
	}
}

func TestTelemetryNilSafe(t *testing.T) {
	var tel *Telemetry
	tel.Advance(time.Second)
	tel.Emit(Event{Kind: EvReset})
	tel.Trc().Rec(tel.Trc().Site(EvTx, "fuzzer", "tx"), 0, 0, 0x215, 0)
	if tel.Reg() != nil || tel.Trc() != nil {
		t.Fatal("nil telemetry must hand out nil planes")
	}
}
