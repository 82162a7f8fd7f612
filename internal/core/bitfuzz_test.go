package core

import (
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/clock"
)

func TestBitFuzzerMostInjectionsAreErrorFrames(t *testing.T) {
	s := clock.New()
	b := bus.New(s)
	port := b.Connect("bitfuzzer")
	b.Connect("victim").SetReceiver(func(bus.Message) {})

	bf := NewBitFuzzer(s, port, BitFuzzConfig{Seed: 1})
	bf.Start()
	// Fault confinement sends the attacker bus-off after 32 error frames;
	// model malicious hardware that resets its own controller.
	reset := s.Every(20*time.Millisecond, port.ResetErrors)
	s.RunUntil(2 * time.Second)
	bf.Stop()
	reset.Stop()

	st := bf.Stats()
	if st.Injected < 100 {
		t.Fatalf("injected = %d", st.Injected)
	}
	// A single flipped wire bit almost always breaks CRC or stuffing.
	if st.ErrorFrames < st.Delivered*10 {
		t.Fatalf("error frames %d not ≫ delivered %d", st.ErrorFrames, st.Delivered)
	}
	// The final injection may still be in flight when the run stops.
	if done := st.ErrorFrames + st.Delivered; done < st.Injected-1 || done > st.Injected {
		t.Fatalf("outcome accounting broken: %+v", st)
	}
}

func TestBitFuzzerDrivesVictimErrorPassive(t *testing.T) {
	// The data-link-layer attack: repeated malformed sequences raise every
	// receiver's REC — availability disruption without a single valid frame.
	s := clock.New()
	b := bus.New(s)
	port := b.Connect("bitfuzzer")
	victim := b.Connect("victim")
	victim.SetReceiver(func(bus.Message) {})

	bf := NewBitFuzzer(s, port, BitFuzzConfig{Seed: 2})
	bf.Start()
	// The attacker node itself goes bus-off after 32 error frames; reset it
	// periodically, as malicious hardware that ignores fault confinement.
	reset := s.Every(25*time.Millisecond, port.ResetErrors)
	s.RunUntil(time.Second)
	bf.Stop()
	reset.Stop()

	if victim.State() == bus.ErrorActive {
		_, rec := victim.ErrorCounters()
		t.Fatalf("victim still error-active (rec=%d)", rec)
	}
}

func TestBitFuzzerAttackerHitsBusOffWithoutResets(t *testing.T) {
	s := clock.New()
	b := bus.New(s)
	port := b.Connect("bitfuzzer")
	b.Connect("victim").SetReceiver(func(bus.Message) {})
	bf := NewBitFuzzer(s, port, BitFuzzConfig{Seed: 3, FlipBits: 3})
	bf.Start()
	s.RunUntil(time.Second)
	bf.Stop()
	if port.State() != bus.BusOff {
		t.Fatalf("attacker state = %v, want bus-off (fault confinement works)", port.State())
	}
	if bf.Stats().Rejected == 0 {
		t.Fatal("injections after bus-off should be rejected")
	}
}

func TestBitFuzzerDeterministic(t *testing.T) {
	run := func() BitFuzzStats {
		s := clock.New()
		b := bus.New(s)
		port := b.Connect("bitfuzzer")
		b.Connect("victim").SetReceiver(func(bus.Message) {})
		bf := NewBitFuzzer(s, port, BitFuzzConfig{Seed: 7})
		bf.Start()
		s.RunUntil(200 * time.Millisecond)
		bf.Stop()
		return bf.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestBitFuzzerCustomCorpus(t *testing.T) {
	s := clock.New()
	b := bus.New(s)
	port := b.Connect("bitfuzzer")
	var seen []can.ID
	b.Connect("victim").SetReceiver(func(m bus.Message) { seen = append(seen, m.Frame.ID) })
	base := can.MustNew(0x215, []byte{0x20, 0x5F, 1, 0, 0, 1, 0x20})
	bf := NewBitFuzzer(s, port, BitFuzzConfig{Seed: 5, Corpus: []can.Frame{base}})
	// Inject many; the few that survive decoding must be near the base
	// frame (single wire-bit flips of it).
	for i := 0; i < 2000; i++ {
		bf.injectOne()
		s.RunFor(time.Millisecond)
	}
	for _, id := range seen {
		// A one-bit flip in the stuffed sequence either keeps the id or
		// changes it slightly; it must still be a valid 11-bit id.
		if !id.Valid() {
			t.Fatalf("invalid delivered id %v", id)
		}
	}
}

func TestBitFuzzerStartStopIdempotent(t *testing.T) {
	s := clock.New()
	b := bus.New(s)
	bf := NewBitFuzzer(s, b.Connect("f"), BitFuzzConfig{Seed: 1})
	bf.Start()
	bf.Start() // no double timer
	s.RunUntil(10 * time.Millisecond)
	bf.Stop()
	bf.Stop()
	injected := bf.Stats().Injected
	s.RunUntil(time.Second)
	if bf.Stats().Injected != injected {
		t.Fatal("injection continued after Stop")
	}
	if injected != 10 {
		t.Fatalf("injected = %d in 10ms, want 10 (double Start leaked a timer?)", injected)
	}
}
