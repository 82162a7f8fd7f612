package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind classifies trace events. Kinds map to Chrome trace_event
// categories so Perfetto can filter one plane of the simulation at a time.
type EventKind uint8

// Trace event kinds emitted by the instrumented stack.
const (
	// EvArbWon marks a port winning bus arbitration.
	EvArbWon EventKind = iota + 1
	// EvArbLost marks a port losing an arbitration round.
	EvArbLost
	// EvTx is a completed frame transmission; Dur is the stuffed wire time.
	EvTx
	// EvErrorFrame marks a destroyed transmission (corruption or protocol
	// violation signalled by error flags).
	EvErrorFrame
	// EvStateChange marks an error-active/error-passive/bus-off transition.
	EvStateChange
	// EvDispatch marks an ECU handling a received frame.
	EvDispatch
	// EvGenBatch marks a generator progress checkpoint (every batch of
	// fuzz frames).
	EvGenBatch
	// EvOracle marks an oracle firing.
	EvOracle
	// EvReset marks a campaign system reset.
	EvReset
	// EvCustom is free-form instrumentation.
	EvCustom
	// EvFault marks an injected fault (wire corruption window, babbling
	// node, jam, ECU stall/panic, port detach) taking effect.
	EvFault
	// EvRecover marks a recovery action: a bus-off node rejoining after the
	// ISO 11898-1 interval, an ECU rebooting after a crash, or a campaign
	// watchdog reset restoring bus progress.
	EvRecover
)

// category returns the trace_event "cat" string.
func (k EventKind) category() string {
	switch k {
	case EvArbWon, EvArbLost:
		return "arbitration"
	case EvTx:
		return "tx"
	case EvErrorFrame, EvStateChange:
		return "error"
	case EvDispatch:
		return "ecu"
	case EvGenBatch:
		return "generator"
	case EvOracle:
		return "oracle"
	case EvReset:
		return "campaign"
	case EvFault:
		return "fault"
	case EvRecover:
		return "recovery"
	default:
		return "custom"
	}
}

// Event is one trace sample on the virtual timeline. The fixed-shape args
// (ID, N, Detail) keep Emit allocation-free; Kind sits beside ID so the
// struct packs into 80 bytes, the ring's per-slot cost.
type Event struct {
	// At is the virtual start instant.
	At time.Duration
	// Dur is the span length; zero means an instant event.
	Dur time.Duration
	// Actor is the emitting entity (port, ECU, campaign); it becomes the
	// trace track (tid).
	Actor string
	// Name is the display name.
	Name string
	// Detail is an optional free-form argument.
	Detail string
	// ID is the CAN identifier involved, when meaningful.
	ID uint32
	// Kind classifies the event.
	Kind EventKind
	// N is a generic numeric argument (frame count, error counter...).
	N uint64
}

// Tracer records events into a bounded ring buffer: when full, the oldest
// events are overwritten, so a long campaign keeps its most recent history
// (the frames *before* a finding — exactly what the paper's failure
// analysis needs). A nil *Tracer is valid and Emit on it is a no-op.
//
// A tracer has two write modes. Outside a run every Emit takes the mutex,
// so any goroutine may emit. During a run (Buffer ... Flush, which
// core.Campaign's Start and Stop call) the world's simulation goroutine is
// the only writer: it fills ring slots no reader can see without locking
// and publishes them under the mutex once per traceSlack events. Readers
// (Events, Len, Total, WriteChromeTrace) copy only published slots, under
// the mutex, so they see every event up to the last publication — at most
// traceSlack events behind during a run, exact after Flush. A tracer
// therefore belongs to one world: sharing one between worlds that run at
// the same time is a data race.
type Tracer struct {
	// kinds is the recording filter: bit k set records EventKind k; zero
	// records every kind.
	kinds atomic.Uint64

	// Writer state: the owner's alone while buffered, guarded by mu
	// otherwise.
	buf      []Event // capacity + traceSlack slots, allocated on first use
	capacity int     // events retained for readers
	w        int     // slot the next event is written to
	pending  int     // events written but not yet published
	buffered bool

	// Published state, guarded by mu: readers see the min(pubN, capacity)
	// events that end just before slot pubW.
	mu   sync.Mutex
	pubN uint64
	pubW int
}

// DefaultTraceCapacity bounds the ring buffer (events retained).
const DefaultTraceCapacity = 1 << 16

// traceSlack is how many events a buffered tracer writes between
// publications. The ring carries this many slots beyond its capacity, so
// the unpublished ones never overlap the retained window readers copy.
const traceSlack = 256

// NewTracer creates a tracer retaining up to capacity events
// (DefaultTraceCapacity when capacity <= 0). The ring is allocated at full
// size when the tracer is first buffered or first records, so a tracer
// that never does holds no ring for the garbage collector to scan.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{capacity: capacity}
}

// SetKinds restricts recording to the given kinds (all kinds when empty;
// only kinds below 64 can be selected). Restricting high-rate kinds
// (EvDispatch, EvTx) stretches the ring's history for long campaigns.
func (t *Tracer) SetKinds(kinds ...EventKind) {
	if t == nil {
		return
	}
	var mask uint64
	for _, k := range kinds {
		mask |= 1 << k
	}
	t.kinds.Store(mask)
}

// records reports whether the kind filter admits k.
func (t *Tracer) records(k EventKind) bool {
	m := t.kinds.Load()
	return m == 0 || m&(1<<k) != 0
}

// Buffer switches the tracer to buffered mode for a run: from now until
// Flush the calling goroutine must be its only writer. Idempotent. The
// ring is allocated here or on the first locked-mode record, so the
// buffered write path never checks for it.
func (t *Tracer) Buffer() {
	if t == nil {
		return
	}
	if !t.buffered {
		t.mu.Lock()
		t.allocRing()
		t.mu.Unlock()
	}
	t.buffered = true
}

// Flush publishes every buffered event and returns the tracer to locked
// mode, after which reads are exact. A no-op outside buffered mode.
func (t *Tracer) Flush() {
	if t == nil || !t.buffered {
		return
	}
	t.publish()
	t.buffered = false
}

// publish makes every written event visible to readers.
func (t *Tracer) publish() {
	t.mu.Lock()
	t.publishLocked()
	t.mu.Unlock()
}

// publishLocked is publish with mu held.
func (t *Tracer) publishLocked() {
	t.pubN += uint64(t.pending)
	t.pubW, t.pending = t.w, 0
}

// Begin returns the ring slot the next event is written into, holding the
// given kind, instant, actor and name with every other field cleared, or
// nil when t is nil or the kind filter drops the event. The caller sets
// any other fields and must call Commit before any other call on t. Hot
// emit sites use it instead of Emit so the event is written in place
// rather than built and copied.
func (t *Tracer) Begin(kind EventKind, at time.Duration, actor, name string) *Event {
	if t == nil || !t.records(kind) {
		return nil
	}
	if !t.buffered {
		t.mu.Lock()
		t.allocRing()
	}
	e := &t.buf[t.w]
	e.At, e.Dur, e.Kind, e.Actor, e.Name, e.Detail, e.ID, e.N = at, 0, kind, actor, name, "", 0, 0
	return e
}

// allocRing allocates the ring if it has none yet; the caller holds mu,
// under which readers read buf.
func (t *Tracer) allocRing() {
	if t.buf == nil {
		t.buf = make([]Event, t.capacity+traceSlack)
	}
}

// Commit records the event Begin returned.
func (t *Tracer) Commit() {
	if t.w++; t.w == len(t.buf) {
		t.w = 0
	}
	t.pending++
	if !t.buffered {
		t.publishLocked()
		t.mu.Unlock()
		return
	}
	if t.pending == traceSlack {
		t.publish()
	}
}

// Emit records one event. Safe on a nil receiver, and for concurrent use
// outside buffered mode.
func (t *Tracer) Emit(e Event) {
	if s := t.Begin(e.Kind, e.At, e.Actor, e.Name); s != nil {
		*s = e
		t.Commit()
	}
}

// Reset discards all retained events, published or not (the kind filter,
// capacity and write mode are kept), so a reused world's trace starts
// empty like a fresh one's.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.w, t.pending = 0, 0
	t.pubN, t.pubW = 0, 0
}

// Total returns how many events were published (including overwritten
// ones).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pubN
}

// Len returns how many published events are currently retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.retained()
}

// retained is Len under mu.
func (t *Tracer) retained() int {
	if t.pubN < uint64(t.capacity) {
		return int(t.pubN)
	}
	return t.capacity
}

// Events returns the retained published events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.retained()
	out := make([]Event, n)
	if start := t.pubW - n; start >= 0 {
		copy(out, t.buf[start:t.pubW])
	} else {
		k := copy(out, t.buf[len(t.buf)+start:])
		copy(out[k:], t.buf[:t.pubW])
	}
	return out
}

// chromeEvent is the trace_event JSON shape Perfetto/chrome://tracing read.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the retained events as a Chrome trace_event JSON
// document on the virtual timeline: load the file in Perfetto (or
// chrome://tracing) and each actor (port, ECU, campaign) appears as its own
// track, with tx spans sized by their stuffed wire time.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()

	// Assign one track per actor, in order of first appearance, and name
	// the tracks with thread_name metadata events.
	tids := make(map[string]int)
	var order []string
	for _, e := range events {
		if _, ok := tids[e.Actor]; !ok {
			tids[e.Actor] = len(tids) + 1
			order = append(order, e.Actor)
		}
	}

	out := make([]chromeEvent, 0, len(events)+len(order))
	for _, actor := range order {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tids[actor],
			Args: map[string]any{"name": actor},
		})
	}
	for _, e := range events {
		ce := chromeEvent{
			Name: e.Name,
			Cat:  e.Kind.category(),
			Ts:   float64(e.At) / float64(time.Microsecond),
			Pid:  1,
			Tid:  tids[e.Actor],
		}
		if e.Dur > 0 {
			ce.Ph = "X"
			ce.Dur = float64(e.Dur) / float64(time.Microsecond)
		} else {
			ce.Ph = "i"
			ce.S = "t" // thread-scoped instant
		}
		args := make(map[string]any)
		if e.Detail != "" {
			args["detail"] = e.Detail
		}
		if e.ID != 0 || e.Kind == EvTx || e.Kind == EvArbWon || e.Kind == EvArbLost {
			args["id"] = e.ID
		}
		if e.N != 0 {
			args["n"] = e.N
		}
		if len(args) > 0 {
			ce.Args = args
		}
		out = append(out, ce)
	}

	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: out, DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
