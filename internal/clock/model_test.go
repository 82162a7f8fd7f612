package clock

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// refEvent is one pending event of the reference scheduler.
type refEvent struct {
	at   time.Duration
	seq  uint64
	fire func()
	dead bool // stopped; drained when it reaches the front
	gone bool // fired or drained: no longer pending
}

// refScheduler is a plain reference for Scheduler: a list of events,
// searched linearly for the least (at, seq), with the same cancellation
// (dead until drained) and Reset rules.
type refScheduler struct {
	now     time.Duration
	seq     uint64
	pending []*refEvent
}

func (r *refScheduler) schedule(at time.Duration, fire func()) *refEvent {
	ev := &refEvent{at: at, seq: r.seq, fire: fire}
	r.seq++
	r.pending = append(r.pending, ev)
	return ev
}

// front removes and returns the least pending event, or nil.
func (r *refScheduler) front() *refEvent {
	if len(r.pending) == 0 {
		return nil
	}
	best := 0
	for i, ev := range r.pending {
		if ev.at < r.pending[best].at || ev.at == r.pending[best].at && ev.seq < r.pending[best].seq {
			best = i
		}
	}
	return r.pending[best]
}

func (r *refScheduler) remove(ev *refEvent) {
	ev.gone = true
	r.pending = slices.DeleteFunc(r.pending, func(e *refEvent) bool { return e == ev })
}

func (r *refScheduler) fire(ev *refEvent) {
	r.remove(ev)
	r.now = ev.at
	ev.fire()
}

func (r *refScheduler) step() bool {
	for ev := r.front(); ev != nil; ev = r.front() {
		if ev.dead {
			r.remove(ev)
			continue
		}
		r.fire(ev)
		return true
	}
	return false
}

func (r *refScheduler) runUntil(deadline time.Duration) {
	for ev := r.front(); ev != nil; ev = r.front() {
		if ev.dead {
			r.remove(ev)
			continue
		}
		if ev.at > deadline {
			break
		}
		r.fire(ev)
	}
	if r.now < deadline {
		r.now = deadline
	}
}

func (r *refScheduler) reset() {
	for _, ev := range r.pending {
		ev.gone = true
	}
	r.pending = nil
	r.now, r.seq = 0, 0
}

// stop is Timer.Stop on the reference event.
func (r *refScheduler) stop(ev *refEvent) bool {
	if ev == nil || ev.gone || ev.dead {
		return false
	}
	ev.dead = true
	return true
}

// refPeriodic mirrors Periodic on the reference scheduler.
type refPeriodic struct {
	r        *refScheduler
	interval time.Duration
	running  bool
	ev       *refEvent
	fn       func()
}

func (p *refPeriodic) tick() {
	p.fn()
	if p.running {
		p.ev = p.r.schedule(p.r.now+p.interval, p.tick)
	}
}

func (p *refPeriodic) start() {
	if p.running {
		return
	}
	p.running = true
	p.ev = p.r.schedule(p.r.now+p.interval, p.tick)
}

func (p *refPeriodic) stop() {
	if !p.running {
		return
	}
	p.running = false
	p.r.stop(p.ev)
	p.ev = nil
}

// TestSchedulerMatchesReference drives the scheduler and the reference
// with the same random mix of one-shot events (with and without a handle,
// some scheduling a child when they fire), Timer stops, Periodic starts
// and stops, Step, RunUntil and Reset, and requires the same firing
// order, the same Now and the same Pending after every operation. Ties
// are frequent (instants on a 100 µs grid), so the (at, seq) order is
// exercised through the head slot and the heap alike.
func TestSchedulerMatchesReference(t *testing.T) {
	const unit = 100 * time.Microsecond
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		s := New()
		ref := &refScheduler{}
		var got, want []int
		nextID := 0

		// oneShot returns the real and reference callbacks of event id:
		// both record id, and every third event schedules a child.
		var oneShot func(id int) (Event, func())
		oneShot = func(id int) (Event, func()) {
			child := id%3 == 0
			d := time.Duration(id%4) * unit
			return func() {
					got = append(got, id)
					if child {
						fn, _ := oneShot(-id - 1)
						s.AfterEvent(d, fn)
					}
				}, func() {
					want = append(want, id)
					if child {
						_, fn := oneShot(-id - 1)
						ref.schedule(ref.now+d, fn)
					}
				}
		}

		type timerPair struct {
			real *Timer
			ref  *refEvent
		}
		var timers []timerPair
		type periodicPair struct {
			real *Periodic
			ref  *refPeriodic
		}
		var periodics []periodicPair
		for i := 0; i < 3; i++ {
			id := 1000 + i
			interval := time.Duration(1+i*2) * unit
			periodics = append(periodics, periodicPair{
				real: s.NewPeriodic(interval, func() { got = append(got, id) }),
				ref:  &refPeriodic{r: ref, interval: interval, fn: func() { want = append(want, id) }},
			})
		}

		for op := 0; op < 3000; op++ {
			switch k := rng.IntN(20); {
			case k < 7: // schedule a one-shot
				id := nextID
				nextID++
				at := s.Now() + time.Duration(rng.IntN(6))*unit
				fn, refFn := oneShot(id)
				ev := ref.schedule(at, refFn)
				if k < 4 {
					s.AtEvent(at, fn)
				} else {
					timers = append(timers, timerPair{real: s.At(at, fn), ref: ev})
				}
			case k < 9: // stop a timer, fired or not
				if len(timers) == 0 {
					continue
				}
				tp := timers[rng.IntN(len(timers))]
				if g, w := tp.real.Stop(), ref.stop(tp.ref); g != w {
					t.Fatalf("seed %d op %d: Timer.Stop = %v, reference %v", seed, op, g, w)
				}
			case k < 11: // start or stop a periodic
				pp := periodics[rng.IntN(len(periodics))]
				if rng.IntN(2) == 0 {
					pp.real.Start()
					pp.ref.start()
				} else {
					pp.real.Stop()
					pp.ref.stop()
				}
			case k < 16:
				if g, w := s.Step(), ref.step(); g != w {
					t.Fatalf("seed %d op %d: Step = %v, reference %v", seed, op, g, w)
				}
			case k < 19:
				deadline := s.Now() + time.Duration(rng.IntN(8))*unit
				s.RunUntil(deadline)
				ref.runUntil(deadline)
			default:
				if rng.IntN(4) == 0 {
					s.Reset()
					ref.reset()
				}
			}
			if s.Now() != ref.now {
				t.Fatalf("seed %d op %d: Now = %v, reference %v", seed, op, s.Now(), ref.now)
			}
			if g, w := s.Pending(), len(ref.pending); g != w {
				t.Fatalf("seed %d op %d: Pending = %d, reference %d", seed, op, g, w)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d op %d: fired %v,\nreference %v", seed, op, got, want)
			}
		}
		if len(got) < 1000 {
			t.Fatalf("seed %d: only %d events fired; the mix is too thin", seed, len(got))
		}
	}
}
