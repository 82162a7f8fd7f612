package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
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
	// ISO 11898-1 interval, or a detached port reattaching after its fault
	// window.
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

// Event is one trace sample on the virtual timeline, as Emit takes it and
// the readers (Events, WriteChromeTrace) return it. The ring does not
// store Events: it stores a 32-byte traceRec per event and rebuilds the
// Event from the emit site and the detail table on read.
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

// Site is an interned emit site: the (kind, actor, name) triple an event
// carries, registered once with Tracer.Site so the hot path records a
// 16-bit index instead of two strings. A Site belongs to the tracer that
// interned it; the zero Site is only for a nil tracer, on which Rec is a
// no-op.
type Site struct {
	idx uint16
}

// siteInfo is one row of the site table.
type siteInfo struct {
	kind        EventKind
	actor, name string
}

// traceRec is one ring slot. It holds no pointers, so the garbage
// collector never scans the ring, and packs into 32 bytes. The Detail
// string, rare and often dynamic, lives in the detail table instead.
type traceRec struct {
	at   time.Duration
	dur  time.Duration
	n    uint64
	id   uint32
	site uint16
}

// traceDetail is one detail-table entry: the Detail of the seq-th event
// since the last Reset.
type traceDetail struct {
	seq    uint64
	detail string
}

// Tracer records events into a bounded ring buffer: when full, the oldest
// events are overwritten, so a long campaign keeps its most recent history
// (the frames *before* a finding — exactly what the paper's failure
// analysis needs). A nil *Tracer is valid and every method on it is a
// no-op.
//
// Events enter through two calls. Rec is the hot one: a component interns
// its emit sites once (Site, when it is instrumented) and then records an
// event as a site index plus four numbers, one call per event. Emit takes
// a whole Event and interns its site on the way, for rare events and
// those with a Detail.
//
// A tracer has two write modes. Outside a run every record takes the
// mutex, so any goroutine may emit. During a run (Buffer ... Flush, which
// core.Campaign's Start and Stop call) the world's simulation goroutine is
// the only writer: Rec fills ring slots no reader can see without locking
// and publishes them under the mutex once per traceSlack events (Emit,
// which touches the site and detail tables, always locks). Readers
// (Events, Len, Total, WriteChromeTrace) copy only published slots, under
// the mutex, so they see every event up to the last publication — at most
// traceSlack events behind during a run, exact after Flush. A tracer
// therefore belongs to one world: sharing one between worlds that run at
// the same time is a data race.
type Tracer struct {
	// Writer state: the owner's alone while buffered, guarded by mu
	// otherwise.
	buf      []traceRec // capacity + traceSlack slots, allocated on first use
	capacity int        // events retained for readers
	w        int        // slot the next event is written to
	pending  int        // events written but not yet published
	buffered bool

	// Guarded by mu: the published state — readers see the
	// min(pubN, capacity) events that end just before slot pubW — and the
	// tables readers resolve slots through. sites only grows. details is
	// in seq order, and publication drops the entries of events that left
	// the retained window, so it holds at most capacity entries plus
	// those of unpublished events.
	mu        sync.Mutex
	pubN      uint64
	pubW      int
	sites     []siteInfo
	siteIndex map[siteInfo]uint16
	details   []traceDetail
}

// DefaultTraceCapacity bounds the ring buffer (events retained).
const DefaultTraceCapacity = 1 << 16

// traceSlack is how many events a buffered tracer writes between
// publications. The ring carries this many slots beyond its capacity, so
// the unpublished ones never overlap the retained window readers copy.
const traceSlack = 256

// maxSites is the size of the site table a uint16 index addresses.
const maxSites = 1 << 16

// NewTracer creates a tracer retaining up to capacity events
// (DefaultTraceCapacity when capacity <= 0). The ring is allocated at full
// size when the tracer is first buffered or first records, so a tracer
// that never does holds no ring.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{capacity: capacity}
}

// Site interns the emit site (kind, actor, name) and returns its handle
// for Rec. Interning the same triple again returns the same handle; sites
// survive Reset. It panics when the table is full (65 536 distinct
// sites) rather than let two sites share an index. Returns the zero Site
// on a nil tracer. Call it on the writer goroutine, when instrumenting.
func (t *Tracer) Site(kind EventKind, actor, name string) Site {
	if t == nil {
		return Site{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.intern(kind, actor, name)
}

// intern is Site with mu held.
func (t *Tracer) intern(kind EventKind, actor, name string) Site {
	key := siteInfo{kind: kind, actor: actor, name: name}
	if idx, ok := t.siteIndex[key]; ok {
		return Site{idx: idx}
	}
	if len(t.sites) == maxSites {
		panic(fmt.Sprintf("telemetry: trace site table full (%d sites); cannot intern %v %q %q",
			maxSites, kind, actor, name))
	}
	if t.siteIndex == nil {
		t.siteIndex = make(map[siteInfo]uint16)
	}
	idx := uint16(len(t.sites))
	t.sites = append(t.sites, key)
	t.siteIndex[key] = idx
	return Site{idx: idx}
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

// publishLocked makes every written event visible to readers and drops
// the details of events that left the retained window; mu is held.
func (t *Tracer) publishLocked() {
	t.pubN += uint64(t.pending)
	t.pubW, t.pending = t.w, 0
	gone := 0
	for gone < len(t.details) && t.details[gone].seq+uint64(t.capacity) < t.pubN {
		gone++
	}
	if gone > 0 {
		clear(t.details[:gone])
		t.details = t.details[gone:]
	}
}

// allocRing allocates the ring if it has none yet; the caller holds mu,
// under which readers read buf.
func (t *Tracer) allocRing() {
	if t.buf == nil {
		t.buf = make([]traceRec, t.capacity+traceSlack)
	}
}

// advance moves past the slot just written and reports whether the event
// is due for publication: always in locked mode, once per traceSlack
// events while buffered.
func (t *Tracer) advance() bool {
	if t.w++; t.w == len(t.buf) {
		t.w = 0
	}
	t.pending++
	return !t.buffered || t.pending == traceSlack
}

// putLocked writes r into the next slot and publishes it when due; mu is
// held.
func (t *Tracer) putLocked(r traceRec) {
	t.allocRing()
	t.buf[t.w] = r
	if t.advance() {
		t.publishLocked()
	}
}

// Rec records one event at site s: its instant, span length (zero for an
// instant event), CAN identifier and numeric argument. It is the hot
// emit call — one call per event, no allocation — for sites interned
// with Site. Safe on a nil receiver, and for concurrent use outside
// buffered mode.
func (t *Tracer) Rec(s Site, at, dur time.Duration, id uint32, n uint64) {
	if t != nil {
		t.rec(s, at, dur, id, n)
	}
}

// rec is Rec on a non-nil tracer. Rec stays small enough to inline, so
// an uninstrumented component pays a nil check and no call. The slot is
// written field by field: copying a composed traceRec in costs a
// store-forwarding stall per event.
func (t *Tracer) rec(s Site, at, dur time.Duration, id uint32, n uint64) {
	if t.buffered {
		r := &t.buf[t.w]
		r.at, r.dur, r.n, r.id, r.site = at, dur, n, id, s.idx
		if t.advance() {
			t.publish()
		}
		return
	}
	t.mu.Lock()
	t.putLocked(traceRec{at: at, dur: dur, n: n, id: id, site: s.idx})
	t.mu.Unlock()
}

// Emit records one event, interning its site. Safe on a nil receiver,
// and for concurrent use outside buffered mode.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.intern(e.Kind, e.Actor, e.Name)
	if e.Detail != "" {
		t.details = append(t.details, traceDetail{seq: t.pubN + uint64(t.pending), detail: e.Detail})
	}
	t.putLocked(traceRec{at: e.At, dur: e.Dur, n: e.N, id: e.ID, site: s.idx})
}

// Reset discards all retained events, published or not, and their
// details (the capacity, write mode and interned sites are kept), so a reused world's trace starts empty like a fresh one's.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.w, t.pending = 0, 0
	t.pubN, t.pubW = 0, 0
	clear(t.details)
	t.details = t.details[:0]
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
	slot := t.pubW - n
	if slot < 0 {
		slot += len(t.buf)
	}
	seq := t.pubN - uint64(n)
	d := 0
	for d < len(t.details) && t.details[d].seq < seq {
		d++
	}
	for i := range out {
		r := &t.buf[slot]
		s := &t.sites[r.site]
		out[i] = Event{At: r.at, Dur: r.dur, Actor: s.actor, Name: s.name, ID: r.id, Kind: s.kind, N: r.n}
		if d < len(t.details) && t.details[d].seq == seq {
			out[i].Detail = t.details[d].detail
			d++
		}
		if slot++; slot == len(t.buf) {
			slot = 0
		}
		seq++
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
