package bus

import (
	"testing"

	"repro/internal/can"
	"repro/internal/clock"
)

// TestSteadyStateTxZeroAlloc pins the whole per-frame transmit path —
// validate + enqueue (ring), arbitrate, wire-length encode (WireBitsWithIFS),
// completion scheduling (pooled clock node, pre-bound event) and delivery —
// at zero heap allocations once queues and pools are warm. This is the
// tentpole guarantee of the hot-path overhaul as a failing test.
func TestSteadyStateTxZeroAlloc(t *testing.T) {
	sched := clock.New()
	b := New(sched)
	tx := b.Connect("fuzzer")
	rx := b.Connect("ecu")
	rx.SetReceiver(func(Message) {})

	f := can.MustNew(0x215, []byte{0x20, 0x5F, 1, 0, 0, 1, 0x20})
	step := b.FrameTime(f)
	for i := 0; i < 32; i++ { // warm the TX ring and the clock's node pool
		if err := tx.Send(f); err != nil {
			t.Fatal(err)
		}
		sched.RunFor(step)
	}

	allocs := testing.AllocsPerRun(1000, func() {
		if err := tx.Send(f); err != nil {
			t.Error(err)
		}
		sched.RunFor(step)
	})
	if allocs != 0 {
		t.Fatalf("steady-state TX path allocates %v per frame, want 0", allocs)
	}
	if got := b.Stats().FramesDelivered; got < 1000 {
		t.Fatalf("frames delivered = %d, want >= 1000 (path not exercised)", got)
	}
}
