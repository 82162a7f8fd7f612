// Package clock provides a deterministic discrete-event virtual clock.
//
// Every component of the simulated vehicle stack (bus, ECUs, fuzzer) runs on
// a Scheduler rather than on wall-clock time. This makes long fuzzing
// campaigns — the paper's Table V runs last up to 4472 simulated seconds —
// execute in milliseconds of real time while preserving the exact temporal
// semantics (1 ms frame pacing, frame transmission latency at 500 kb/s,
// periodic ECU broadcast schedules).
//
// Determinism: events scheduled for the same instant fire in the order they
// were scheduled (a monotonically increasing sequence number breaks ties).
// Given identical seeds, an entire experiment replays bit-for-bit.
//
// The scheduler is the single hottest component of the simulator — every
// frame transmission schedules at least one event — so the event queue is
// built for a zero-allocation steady state: event nodes are pooled on a
// free list (a fired node is recycled for the next schedule), the binary
// heap is hand-rolled over the pooled nodes (no container/heap interface
// boxing, no per-node index maintenance), and the AtEvent/AfterEvent
// entry points skip the cancellation handle entirely for callers that
// never stop their events. The earliest event may sit in a one-node head
// slot beside the heap: a fuzz frame's completion, scheduled into an
// empty slot ahead of everything queued, fires from there without
// touching the heap.
package clock

import (
	"fmt"
	"time"
)

// Event is a callback scheduled to run at a virtual instant.
type Event func()

// item is a scheduled event node. Nodes are pooled: once an event fires
// (or a cancelled node is drained) the node returns to the scheduler's
// free list and its generation is bumped, so a stale Timer handle can
// detect that its event is gone without the node keeping a heap index.
type item struct {
	at   time.Duration // virtual time since scheduler start
	seq  uint64        // tie-break: FIFO among events at the same instant
	fn   Event
	gen  uint32 // incremented on recycle; Timer handles capture it
	dead bool   // cancelled; drained lazily
	next *item  // free-list link while recycled
}

// Timer is a handle to a scheduled event that can be stopped.
type Timer struct {
	it      *item
	gen     uint32
	stopped bool // set by Stop; periodic timers consult it before re-arming
}

// Stop cancels the timer. It reports whether the event had not yet fired.
// Stopping an already-fired or already-stopped timer is a no-op, except
// that for periodic timers it still prevents the next re-arm (so Stop may
// safely be called from inside the timer's own callback).
func (t *Timer) Stop() bool {
	if t == nil || t.it == nil {
		return false
	}
	t.stopped = true
	if t.it.gen != t.gen || t.it.dead {
		return false // already fired (node recycled) or already stopped
	}
	t.it.dead = true
	return true
}

// Scheduler is a discrete-event simulator clock. The zero value is not
// usable; create one with New.
//
// Scheduler is not safe for concurrent use: the simulation is
// single-threaded by design so that runs are reproducible.
type Scheduler struct {
	now time.Duration
	seq uint64
	// head, when non-nil, is the earliest pending node: it orders before
	// every node in queue. When nil, the earliest node (if any) is
	// queue[0]; the slot is refilled only by schedule, never from the
	// heap, so a pop from the slot costs no sift.
	head    *item
	queue   []*item // binary min-heap ordered by (at, seq)
	free    *item   // recycled nodes
	running bool
}

// New returns a Scheduler positioned at virtual time zero.
func New() *Scheduler {
	return &Scheduler{}
}

// Now returns the current virtual time (elapsed since scheduler start).
func (s *Scheduler) Now() time.Duration { return s.now }

// schedule enqueues fn at the absolute instant at on a pooled node.
func (s *Scheduler) schedule(at time.Duration, fn Event) *item {
	if at < s.now {
		panic(fmt.Sprintf("clock: scheduling event at %v before now %v", at, s.now))
	}
	if fn == nil {
		panic("clock: nil event")
	}
	it := s.free
	if it != nil {
		s.free = it.next
		it.next = nil
		it.dead = false
	} else {
		it = &item{}
	}
	it.at, it.seq, it.fn = at, s.seq, fn
	s.seq++
	// The new node's seq is the largest yet, so it orders before another
	// node only at a strictly earlier instant.
	switch {
	case s.head == nil:
		if len(s.queue) == 0 || at < s.queue[0].at {
			s.head = it
		} else {
			s.push(it)
		}
	case at < s.head.at:
		s.push(s.head)
		s.head = it
	default:
		s.push(it)
	}
	return it
}

// peek returns the earliest pending node without removing it, or nil.
func (s *Scheduler) peek() *item {
	if s.head != nil {
		return s.head
	}
	if len(s.queue) > 0 {
		return s.queue[0]
	}
	return nil
}

// next removes and returns the earliest pending node, or nil.
func (s *Scheduler) next() *item {
	if it := s.head; it != nil {
		s.head = nil
		return it
	}
	if len(s.queue) > 0 {
		return s.pop()
	}
	return nil
}

// recycle returns a drained node to the free list, invalidating handles.
func (s *Scheduler) recycle(it *item) {
	it.gen++
	it.fn = nil
	it.next = s.free
	s.free = it
}

// At schedules fn to run at the absolute virtual instant at. Scheduling in
// the past (before Now) panics: it would mean a causality bug in the caller.
func (s *Scheduler) At(at time.Duration, fn Event) *Timer {
	it := s.schedule(at, fn)
	return &Timer{it: it, gen: it.gen}
}

// After schedules fn to run d after the current instant.
func (s *Scheduler) After(d time.Duration, fn Event) *Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// AtEvent schedules fn at the absolute instant at without returning a
// cancellation handle. It is the allocation-free fast path for the
// per-frame simulation loop: the pooled event node is the only state, so
// a steady-state schedule/fire cycle performs zero heap allocations.
func (s *Scheduler) AtEvent(at time.Duration, fn Event) {
	s.schedule(at, fn)
}

// AfterEvent schedules fn to run d after the current instant without
// returning a cancellation handle (see AtEvent).
func (s *Scheduler) AfterEvent(d time.Duration, fn Event) {
	if d < 0 {
		d = 0
	}
	s.schedule(s.now+d, fn)
}

// Every schedules fn to run every interval, starting interval from now, until
// the returned Timer is stopped. The interval must be positive.
func (s *Scheduler) Every(interval time.Duration, fn Event) *Timer {
	if interval <= 0 {
		panic("clock: Every interval must be positive")
	}
	// The periodic timer re-arms itself on the same pooled node family; the
	// caller's Timer handle is updated in place so Stop always cancels the
	// live underlying node. Steady-state re-arming allocates nothing.
	t := &Timer{}
	var tick Event
	tick = func() {
		fn()
		if !t.stopped {
			it := s.schedule(s.now+interval, tick)
			t.it, t.gen = it, it.gen
		}
	}
	it := s.schedule(s.now+interval, tick)
	t.it, t.gen = it, it.gen
	return t
}

// Reset returns the scheduler to virtual time zero with an empty queue.
// Every pending node is recycled onto the free list with its generation
// bumped, so stale Timer/Periodic handles from before the reset can never
// cancel an event scheduled after it. The node pool and queue capacity
// are retained: a reset-and-rebuild cycle allocates nothing, which is
// what makes pooled world reuse (fleet trials recycling a whole
// simulation) allocation-free in steady state.
//
// Reset must not be called from inside a running event; like the rest of
// the Scheduler it is single-threaded by design.
func (s *Scheduler) Reset() {
	if s.running {
		panic("clock: Reset while the scheduler is running")
	}
	if s.head != nil {
		s.recycle(s.head)
		s.head = nil
	}
	for _, it := range s.queue {
		s.recycle(it)
	}
	s.queue = s.queue[:0]
	s.now = 0
	s.seq = 0
}

// Periodic is a reusable repeating timer: allocated once, then armed and
// disarmed any number of times with zero steady-state allocations. It is
// the re-armable counterpart of Every for components that live across
// Scheduler.Reset cycles — an Every call allocates a Timer and a closure
// per arm, a Periodic allocates only at construction.
type Periodic struct {
	s        *Scheduler
	interval time.Duration
	fn       Event
	tick     Event
	it       *item
	gen      uint32
	running  bool
}

// NewPeriodic builds a stopped periodic timer firing fn every interval
// once started. The interval must be positive.
func (s *Scheduler) NewPeriodic(interval time.Duration, fn Event) *Periodic {
	if interval <= 0 {
		panic("clock: Periodic interval must be positive")
	}
	if fn == nil {
		panic("clock: nil event")
	}
	p := &Periodic{s: s, interval: interval, fn: fn}
	p.tick = func() {
		if !p.running {
			return
		}
		p.fn()
		if p.running {
			it := p.s.schedule(p.s.now+p.interval, p.tick)
			p.it, p.gen = it, it.gen
		}
	}
	return p
}

// Start arms the timer: the first fire is one interval from now. Starting
// a running timer is a no-op.
func (p *Periodic) Start() {
	if p.running {
		return
	}
	p.running = true
	it := p.s.schedule(p.s.now+p.interval, p.tick)
	p.it, p.gen = it, it.gen
}

// Stop disarms the timer; safe from inside its own callback, after a
// Scheduler.Reset (the generation check keeps it from touching a recycled
// node), and when already stopped.
func (p *Periodic) Stop() {
	if !p.running {
		return
	}
	p.running = false
	if p.it != nil && p.it.gen == p.gen {
		p.it.dead = true
	}
	p.it = nil
}

// Running reports whether the timer is armed.
func (p *Periodic) Running() bool { return p.running }

// Pending returns the number of events waiting to fire (including dead ones
// not yet drained).
func (s *Scheduler) Pending() int {
	if s.head != nil {
		return len(s.queue) + 1
	}
	return len(s.queue)
}

// Step runs the single next event, advancing Now to its instant. It reports
// false when the queue is empty.
func (s *Scheduler) Step() bool {
	for it := s.next(); it != nil; it = s.next() {
		if it.dead {
			s.recycle(it)
			continue
		}
		s.now = it.at
		fn := it.fn
		// Recycle before running so a self-re-arming event (Every) reuses
		// its own node instead of growing the pool.
		s.recycle(it)
		fn()
		return true
	}
	return false
}

// RunUntil runs events until the virtual clock reaches deadline. Events
// scheduled exactly at deadline do fire. Now is left at deadline even if the
// queue drains early, so subsequent scheduling is relative to the deadline.
func (s *Scheduler) RunUntil(deadline time.Duration) {
	s.running = true
	defer func() { s.running = false }()
	for {
		next := s.peek()
		if next == nil {
			break
		}
		if next.dead {
			s.next()
			s.recycle(next)
			continue
		}
		if next.at > deadline {
			break
		}
		s.next()
		s.now = next.at
		fn := next.fn
		s.recycle(next)
		fn()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor advances the clock by d, running all events due in that window.
func (s *Scheduler) RunFor(d time.Duration) { s.RunUntil(s.now + d) }

// --- Binary heap over pooled nodes ------------------------------------------
//
// A hand-rolled sift keeps the hot path free of container/heap's interface
// dispatch and of per-node index bookkeeping (cancellation is a dead flag
// drained lazily, so nodes never need to know their position).

// less orders nodes by (at, seq); seq is unique, so the order is total and
// identical to the previous container/heap implementation — replacing the
// heap cannot change event order.
func less(a, b *item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push appends it and restores the heap property.
func (s *Scheduler) push(it *item) {
	s.queue = append(s.queue, it)
	q := s.queue
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the minimum node.
func (s *Scheduler) pop() *item {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	s.queue = q[:n]
	q = s.queue
	// Sift the relocated last element down.
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && less(q[right], q[left]) {
			child = right
		}
		if !less(q[child], q[i]) {
			break
		}
		q[i], q[child] = q[child], q[i]
		i = child
	}
	return top
}
