package bus

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/can"
	"repro/internal/clock"
	"repro/internal/telemetry"
)

// TestLoadWindowRunningTotal checks the O(1) running busy total against a
// recount of the buckets over a random walk of completions, reads, long
// idle gaps (partial and whole-window rotation) and resets.
func TestLoadWindowRunningTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := loadWindow{bucket: 100 * time.Millisecond}
	var now time.Duration
	for i := 0; i < 20000; i++ {
		switch r := rng.Intn(100); {
		case r < 2:
			now += time.Duration(rng.Int63n(int64(2 * time.Second))) // idle gap
		case r < 3:
			w.reset()
			now = 0
		default:
			now += time.Duration(rng.Int63n(int64(time.Millisecond)))
		}
		if rng.Intn(2) == 0 {
			w.add(now, time.Duration(rng.Int63n(int64(300*time.Microsecond))))
		}
		got := w.load(now)
		var busy time.Duration
		for _, b := range w.busy {
			busy += b
		}
		if busy != w.total {
			t.Fatalf("step %d: running total %v, buckets sum to %v", i, w.total, busy)
		}
		window := time.Duration(loadWindowBuckets) * w.bucket
		if now < window {
			window = now
		}
		want := 0.0
		if window > 0 {
			want = min(float64(busy)/float64(window), 1)
		}
		if got != want {
			t.Fatalf("step %d: load %v, want %v", i, got, want)
		}
	}
}

// TestLoadGaugeBufferedMatchesDirect runs two identical instrumented
// buses, one on a direct-mode plane and one on a buffered plane, through
// bursts, idle gaps longer than the window, bus resets and a telemetry
// reset. The direct gauge must hold the window's load as of each frame's
// completion, checked at every delivery; the buffered gauge must show,
// at every Publish and at Flush, exactly the direct gauge's value, and
// nothing newer in between.
func TestLoadGaugeBufferedMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	type world struct {
		s   *clock.Scheduler
		b   *Bus
		tx  *Port
		tel *telemetry.Telemetry
	}
	mk := func() world {
		s := clock.New()
		b := New(s)
		tel := telemetry.New(0)
		b.Instrument(tel)
		return world{s: s, b: b, tx: b.Connect("tx"), tel: tel}
	}
	direct, buffered := mk(), mk()
	buffered.tel.Buffer()
	direct.b.Connect("rx").SetReceiver(func(m Message) {
		if got, want := direct.b.gLoad.Value(), direct.b.win.load(m.Time); got != want {
			t.Fatalf("direct gauge at %v = %v, want the window's %v", m.Time, got, want)
		}
	})
	published := buffered.b.gLoad.Value()
	buffered.b.Connect("rx").SetReceiver(func(Message) {
		if got := buffered.b.gLoad.Value(); got != published {
			t.Fatalf("buffered gauge moved to %v between publications", got)
		}
	})
	changes := 0
	for step := 0; step < 400; step++ {
		switch r := rng.Intn(40); {
		case r == 0: // idle bus reset, the plane left as it is
			until := direct.s.Now() + 10*time.Millisecond
			for _, w := range []world{direct, buffered} {
				w.s.RunUntil(until)
				w.b.Reset()
			}
		case r == 1: // a frame completes, then the plane is reset
			until := direct.s.Now() + time.Millisecond
			for _, w := range []world{direct, buffered} {
				w.tx.Send(can.MustNew(0x100, nil))
				w.s.RunUntil(until)
				w.tel.Reset()
			}
			published = 0
		default:
			f := can.MustNew(can.ID(rng.Intn(can.NumIDs)), make([]byte, rng.Intn(9)))
			burst := 1 + rng.Intn(12)
			for i := 0; i < burst; i++ {
				direct.tx.Send(f)
				buffered.tx.Send(f)
			}
		}
		gap := time.Duration(rng.Int63n(int64(3 * time.Millisecond)))
		if rng.Intn(20) == 0 {
			gap = time.Duration(rng.Int63n(int64(3 * DefaultLoadWindow)))
		}
		until := direct.s.Now() + gap
		direct.s.RunUntil(until)
		buffered.s.RunUntil(until)
		buffered.tel.Publish()
		prev := published
		published = buffered.b.gLoad.Value()
		if want := direct.b.gLoad.Value(); published != want {
			t.Fatalf("step %d: published load %v, direct %v", step, published, want)
		}
		if published != prev {
			changes++
		}
	}
	direct.s.RunUntil(direct.s.Now() + time.Second)
	buffered.s.RunUntil(buffered.s.Now() + time.Second)
	buffered.tel.Flush()
	if got, want := buffered.b.gLoad.Value(), direct.b.gLoad.Value(); got != want {
		t.Fatalf("load after Flush %v, direct %v", got, want)
	}
	if changes < 100 {
		t.Fatalf("the published load changed only %d times; the walk is too tame", changes)
	}
}
