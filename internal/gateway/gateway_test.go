package gateway

import (
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/clock"
)

func rig(t *testing.T) (*clock.Scheduler, *bus.Bus, *bus.Bus, *Gateway) {
	t.Helper()
	s := clock.New()
	a := bus.New(s)
	b := bus.New(s)
	g := New("gw", a, b)
	return s, a, b, g
}

func TestForwardAllBothDirections(t *testing.T) {
	s, a, b, _ := rig(t)
	pa := a.Connect("nodeA")
	pb := b.Connect("nodeB")
	var onB, onA []can.ID
	pb.SetReceiver(func(m bus.Message) { onB = append(onB, m.Frame.ID) })
	pa.SetReceiver(func(m bus.Message) { onA = append(onA, m.Frame.ID) })
	pa.Send(can.MustNew(0x100, []byte{1}))
	pb.Send(can.MustNew(0x200, []byte{2}))
	s.RunUntil(time.Second)
	if len(onB) != 1 || onB[0] != 0x100 {
		t.Fatalf("bus B saw %v", onB)
	}
	if len(onA) != 1 || onA[0] != 0x200 {
		t.Fatalf("bus A saw %v", onA)
	}
}

func TestNoForwardingLoop(t *testing.T) {
	s, a, b, _ := rig(t)
	pa := a.Connect("nodeA")
	count := 0
	b.Connect("nodeB").SetReceiver(func(bus.Message) { count++ })
	pa.Send(can.MustNew(0x100, nil))
	s.RunUntil(time.Second)
	if count != 1 {
		t.Fatalf("frame delivered %d times on bus B (loop?)", count)
	}
}

func TestAllowListFiltersUnlisted(t *testing.T) {
	s, a, b, g := rig(t)
	g.SetPolicy(AToB, AllowList)
	g.Allow(AToB, 0x110)
	pa := a.Connect("nodeA")
	var got []can.ID
	b.Connect("nodeB").SetReceiver(func(m bus.Message) { got = append(got, m.Frame.ID) })
	pa.Send(can.MustNew(0x110, nil))
	pa.Send(can.MustNew(0x215, nil))
	s.RunUntil(time.Second)
	if len(got) != 1 || got[0] != 0x110 {
		t.Fatalf("bus B saw %v, want only 0x110", got)
	}
	st := g.Stats(AToB)
	if st.Forwarded != 1 || st.Blocked != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAllowListDirectionIndependent(t *testing.T) {
	s, a, b, g := rig(t)
	g.SetPolicy(AToB, AllowList) // nothing allowed A->B
	pa := a.Connect("nodeA")
	pb := b.Connect("nodeB")
	var onA []can.ID
	pa.SetReceiver(func(m bus.Message) { onA = append(onA, m.Frame.ID) })
	countB := 0
	pb.SetReceiver(func(bus.Message) { countB++ })
	pa.Send(can.MustNew(0x300, nil)) // blocked A->B
	pb.Send(can.MustNew(0x400, nil)) // still ForwardAll B->A
	s.RunUntil(time.Second)
	if countB != 0 {
		t.Fatal("blocked frame crossed A->B")
	}
	if len(onA) != 1 || onA[0] != 0x400 {
		t.Fatalf("bus A saw %v", onA)
	}
}

func TestBlockAll(t *testing.T) {
	s, a, b, g := rig(t)
	g.SetPolicy(AToB, BlockAll)
	g.SetPolicy(BToA, BlockAll)
	pa := a.Connect("nodeA")
	pb := b.Connect("nodeB")
	crossed := 0
	pa.SetReceiver(func(bus.Message) { crossed++ })
	pb.SetReceiver(func(bus.Message) { crossed++ })
	pa.Send(can.MustNew(0x1, nil))
	pb.Send(can.MustNew(0x2, nil))
	s.RunUntil(time.Second)
	if crossed != 0 {
		t.Fatalf("%d frames crossed a BlockAll gateway", crossed)
	}
	if g.Stats(AToB).Blocked != 1 || g.Stats(BToA).Blocked != 1 {
		t.Fatal("blocked counters wrong")
	}
}

func TestForwardedFramePreservesPayload(t *testing.T) {
	s, a, b, _ := rig(t)
	pa := a.Connect("nodeA")
	var got can.Frame
	b.Connect("nodeB").SetReceiver(func(m bus.Message) { got = m.Frame })
	want := can.MustNew(0x43A, []byte{0x1C, 0x21, 0x17, 0x71, 0x17, 0x71, 0xFF, 0xFF})
	pa.Send(want)
	s.RunUntil(time.Second)
	if got != want {
		t.Fatalf("forwarded frame = %v, want %v", got, want)
	}
}
