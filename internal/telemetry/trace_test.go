package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"
)

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Kind: EvTx})
	tr.SetKinds(EvTx)
	tr.Buffer()
	tr.Flush()
	if tr.Begin(EvTx, 0, "fuzzer", "tx") != nil {
		t.Fatal("nil tracer handed out a slot")
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

func TestTracerKindFilter(t *testing.T) {
	for _, buffered := range []bool{false, true} {
		tr := NewTracer(8)
		if buffered {
			tr.Buffer()
		}
		tr.SetKinds(EvOracle, EvReset)
		tr.Emit(Event{Kind: EvTx})
		tr.Emit(Event{Kind: EvOracle})
		if ev := tr.Begin(EvDispatch, 0, "bcm", "dispatch"); ev != nil {
			t.Fatalf("buffered=%v: Begin handed out a slot for a filtered kind", buffered)
		}
		if ev := tr.Begin(EvReset, 0, "campaign", "reset"); ev != nil {
			tr.Commit()
		}
		tr.Flush()
		got := tr.Events()
		if len(got) != 2 || got[0].Kind != EvOracle || got[1].Kind != EvReset {
			t.Fatalf("buffered=%v: filter failed: %v", buffered, got)
		}
		tr.SetKinds() // back to all
		tr.Emit(Event{Kind: EvTx})
		if tr.Len() != 3 {
			t.Fatalf("buffered=%v: empty SetKinds must re-enable all kinds", buffered)
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
			var m traceModel
			for i := 0; i < events; i++ {
				if i%flushEvery == 0 && (i/flushEvery)%3 != 1 {
					// Most periods start a buffered stretch; every third
					// one stays on the locked path.
					tr.Buffer()
					m.buffered = true
				}
				e := Event{At: time.Duration(i), Kind: EventKind(1 + i%12), Actor: "a", Name: "n", ID: uint32(i), N: uint64(i)}
				// Full events via Emit and in-place ones via Begin share
				// slots as the ring wraps (5 does not divide the ring
				// size), so a field Begin fails to clear shows up.
				if i%5 < 2 {
					e.Dur, e.Detail = 1, "full"
					tr.Emit(e)
				} else if ev := tr.Begin(e.Kind, e.At, e.Actor, e.Name); ev != nil {
					ev.ID, ev.N = e.ID, e.N
					tr.Commit()
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
	tr.Buffer()
	for i := 0; i < events; i++ {
		if ev := tr.Begin(EvTx, time.Duration(i), "fuzzer", "tx"); ev != nil {
			ev.N = uint64(i)
			tr.Commit()
		}
	}
	tr.Flush()
	close(done)
	wg.Wait()
	if tr.Total() != events {
		t.Fatalf("Total = %d after Flush, want %d", tr.Total(), events)
	}
}

// TestTracerUnwrittenHoldsNoRing checks the ring is allocated only when
// the tracer is first buffered or first records: one that never does (or
// whose kind filter drops everything it is given) holds no ring and
// reads as empty.
func TestTracerUnwrittenHoldsNoRing(t *testing.T) {
	tr := NewTracer(0)
	tr.SetKinds(EvOracle)
	tr.Emit(Event{Kind: EvTx})
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
			if ev := tr.Begin(EvTx, time.Duration(i), "fuzzer", "tx"); ev != nil {
				tr.Commit()
			}
		}
		tr.Flush()
		wg.Wait()
		if tr.Total() != traceSlack+1 {
			t.Fatalf("buffered=%v: Total = %d, want %d", buffered, tr.Total(), traceSlack+1)
		}
	}
}

// TestTracerBufferedZeroAlloc pins the buffered write path — Begin/Commit,
// Emit, the batched publication and Flush — at zero allocations.
func TestTracerBufferedZeroAlloc(t *testing.T) {
	tr := NewTracer(64)
	allocs := testing.AllocsPerRun(100, func() {
		tr.Buffer()
		for i := 0; i < 2*traceSlack; i++ {
			if ev := tr.Begin(EvDispatch, time.Duration(i), "bcm", "dispatch"); ev != nil {
				ev.ID = uint32(i)
				tr.Commit()
			}
		}
		tr.Emit(Event{Kind: EvGenBatch, Actor: "campaign", Name: "gen-batch"})
		tr.Flush()
	})
	if allocs != 0 {
		t.Fatalf("buffered emit + flush allocates %.1f times per run, want 0", allocs)
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
	if tel.Begin(EvTx, 0, "fuzzer", "tx") != nil {
		t.Fatal("nil telemetry handed out a slot")
	}
	if tel.Reg() != nil || tel.Trc() != nil {
		t.Fatal("nil telemetry must hand out nil planes")
	}
}
