package faults

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/clock"
	"repro/internal/ecu"
)

func TestParsePlanFull(t *testing.T) {
	p, err := ParsePlan("seed=42; corrupt(p=0.5,at=2s,for=50ms); babble(id=005,at=2s,for=1s,every=500us); " +
		"stall(ecu=cluster,at=3s,for=500ms); jam(at=4s,for=10ms); panic(ecu=cluster,at=6s,detail=oops); " +
		"detach(port=fuzzer,at=5s,for=1s); drop(p=0.05); dup(p=0.01)")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 {
		t.Fatalf("seed = %d", p.Seed)
	}
	want := []Spec{
		{Kind: KindCorrupt, Prob: 0.5, At: 2 * time.Second, For: 50 * time.Millisecond},
		{Kind: KindBabble, ID: 0x005, At: 2 * time.Second, For: time.Second, Every: 500 * time.Microsecond},
		{Kind: KindStall, Target: "cluster", At: 3 * time.Second, For: 500 * time.Millisecond},
		{Kind: KindJam, At: 4 * time.Second, For: 10 * time.Millisecond},
		{Kind: KindPanic, Target: "cluster", At: 6 * time.Second, Detail: "oops"},
		{Kind: KindDetach, Target: "fuzzer", At: 5 * time.Second, For: time.Second},
		{Kind: KindDrop, Prob: 0.05},
		{Kind: KindDup, Prob: 0.01},
	}
	if !reflect.DeepEqual(p.Specs, want) {
		t.Fatalf("specs = %+v\nwant    %+v", p.Specs, want)
	}
	kinds := p.Kinds()
	if len(kinds) != 8 {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"seed=7",                // no fault clauses
		"meltdown(at=1s)",       // unknown kind
		"corrupt(at=1s",         // unbalanced
		"corrupt(wat=1)",        // unknown key
		"corrupt(p=banana)",     // bad number
		"babble(id=FFFF)",       // identifier out of range
		"corrupt(p 1)",          // not key=value
		"seed=banana;corrupt()", // bad seed
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) succeeded, want error", bad)
		}
	}
}

func TestStartValidatesTargets(t *testing.T) {
	s := clock.New()
	b := bus.New(s)
	inj := New(s, Plan{Specs: []Spec{{Kind: KindStall, Target: "ghost", For: time.Millisecond}}})
	inj.AttachBus(b)
	if err := inj.Start(); err == nil {
		t.Fatal("Start accepted a stall on an unattached ECU")
	}
	inj2 := New(s, Plan{Specs: []Spec{{Kind: KindCorrupt}}})
	if err := inj2.Start(); err == nil {
		t.Fatal("Start accepted a wire fault without a bus")
	}
}

// chaosRig is a two-node bus with a periodic sender, for wire-fault tests.
// The returned func reports how many frames the receiver saw.
func chaosRig(t *testing.T) (*clock.Scheduler, *bus.Bus, *bus.Port, func() int) {
	t.Helper()
	s := clock.New()
	b := bus.New(s)
	tx := b.Connect("tx")
	rx := b.Connect("rx")
	received := 0
	rx.SetReceiver(func(bus.Message) { received++ })
	s.Every(time.Millisecond, func() {
		_ = tx.Send(can.MustNew(0x100, []byte{1}))
	})
	return s, b, tx, func() int { return received }
}

func TestCorruptWindowDrivesErrorCounters(t *testing.T) {
	s, b, tx, _ := chaosRig(t)
	inj := New(s, Plan{Seed: 1, Specs: []Spec{
		{Kind: KindCorrupt, Prob: 1, At: 10 * time.Millisecond, For: 20 * time.Millisecond},
	}})
	inj.AttachBus(b)
	if err := inj.Start(); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(50 * time.Millisecond)
	if tec, _ := tx.ErrorCounters(); tec == 0 {
		t.Fatal("corrupt window did not raise the transmitter's TEC")
	}
	if got := inj.Counts()[string(KindCorrupt)]; got == 0 {
		t.Fatal("no corrupt injections counted")
	}
	// Outside the window traffic flows clean again and TEC heals.
	s.RunUntil(400 * time.Millisecond)
	if tec, _ := tx.ErrorCounters(); tec != 0 {
		t.Fatalf("TEC = %d after the window, want healed to 0", tec)
	}
}

func TestDropAndDupProbabilistic(t *testing.T) {
	s, b, _, received := chaosRig(t)
	inj := New(s, Plan{Seed: 9, Specs: []Spec{
		{Kind: KindDrop, Prob: 0.5, At: 0},
	}})
	inj.AttachBus(b)
	if err := inj.Start(); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(time.Second)
	dropped := inj.Counts()[string(KindDrop)]
	if dropped == 0 {
		t.Fatal("p=0.5 drop window dropped nothing")
	}
	// ~1000 frames at p=0.5: both outcomes must occur.
	if got := received(); got == 0 || uint64(got)+dropped < 990 {
		t.Fatalf("received=%d dropped=%d; want them to partition ~1000 sends", got, dropped)
	}
	if st := b.Stats(); st.FramesDropped != dropped {
		t.Fatalf("bus dropped stat %d != injector count %d", st.FramesDropped, dropped)
	}
}

func TestBabbleStarvesLowPriorityTraffic(t *testing.T) {
	s, b, tx, _ := chaosRig(t)
	inj := New(s, Plan{Seed: 3, Specs: []Spec{
		{Kind: KindBabble, ID: 0x005, At: 100 * time.Millisecond, For: 200 * time.Millisecond, Every: 100 * time.Microsecond},
	}})
	inj.AttachBus(b)
	if err := inj.Start(); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(500 * time.Millisecond)
	if inj.Counts()[string(KindBabble)] == 0 {
		t.Fatal("babble node sent nothing")
	}
	if tx.Stats().ArbLosses == 0 {
		t.Fatal("babbling idiot at id 005 never beat the 0x100 sender in arbitration")
	}
	// The flood ends with the window: no further babble sends afterwards.
	floodTotal := inj.Counts()[string(KindBabble)]
	s.RunUntil(time.Second)
	if got := inj.Counts()[string(KindBabble)]; got != floodTotal {
		t.Fatalf("babble kept sending after its window: %d -> %d", floodTotal, got)
	}
	if b.WindowLoad() > 0.5 {
		t.Fatalf("bus load %v long after the babble window, want drained", b.WindowLoad())
	}
}

func TestStallPanicDetachLifecycle(t *testing.T) {
	s := clock.New()
	b := bus.New(s)
	dutPort := b.Connect("dut")
	dut := ecu.New("dut", s, dutPort)
	handled := 0
	dut.Handle(0x100, func(bus.Message) { handled++ })
	peer := b.Connect("peer")
	s.Every(time.Millisecond, func() { _ = peer.Send(can.MustNew(0x100, nil)) })

	inj := New(s, Plan{Seed: 5, Specs: []Spec{
		{Kind: KindStall, Target: "dut", At: 10 * time.Millisecond, For: 20 * time.Millisecond},
		{Kind: KindDetach, Target: "peer2", At: 40 * time.Millisecond, For: 20 * time.Millisecond},
		{Kind: KindPanic, Target: "dut", At: 80 * time.Millisecond, Detail: "chaos"},
	}})
	inj.AttachBus(b)
	inj.AttachECU("dut", dut)
	peer2 := b.Connect("peer2")
	inj.AttachPort("peer2", peer2)
	if err := inj.Start(); err != nil {
		t.Fatal(err)
	}

	s.RunUntil(15 * time.Millisecond)
	if !dut.Stalled() {
		t.Fatal("ECU not stalled inside the stall window")
	}
	s.RunUntil(45 * time.Millisecond)
	if dut.Stalled() {
		t.Fatal("ECU still stalled after the stall window")
	}
	if err := peer2.Send(can.MustNew(0x1, nil)); err == nil {
		t.Fatal("detached port accepted a send")
	}
	s.RunUntil(70 * time.Millisecond)
	if err := peer2.Send(can.MustNew(0x1, nil)); err != nil {
		t.Fatalf("reattached port rejects sends: %v", err)
	}
	s.RunUntil(100 * time.Millisecond)
	if !dut.Crashed() || dut.CrashDetail() != "chaos" {
		t.Fatalf("crashed=%v detail=%q after injected panic", dut.Crashed(), dut.CrashDetail())
	}
	counts := inj.Counts()
	for _, k := range []Kind{KindStall, KindDetach, KindPanic} {
		if counts[string(k)] != 1 {
			t.Fatalf("counts[%s] = %d, want 1 (all: %v)", k, counts[string(k)], counts)
		}
	}
}

func TestPlanDeterminism(t *testing.T) {
	run := func() (map[string]uint64, int) {
		s, b, _, received := chaosRig(t)
		inj := New(s, Plan{Seed: 77, Specs: []Spec{
			{Kind: KindDrop, Prob: 0.3},
			{Kind: KindDup, Prob: 0.2},
			{Kind: KindCorrupt, Prob: 0.05, At: 100 * time.Millisecond, For: 300 * time.Millisecond},
		}})
		inj.AttachBus(b)
		if err := inj.Start(); err != nil {
			t.Fatal(err)
		}
		s.RunUntil(time.Second)
		return inj.Counts(), received()
	}
	c1, r1 := run()
	c2, r2 := run()
	if !reflect.DeepEqual(c1, c2) || r1 != r2 {
		t.Fatalf("same seed diverged: %v/%d vs %v/%d", c1, r1, c2, r2)
	}
	if c1[string(KindDrop)] == 0 || c1[string(KindDup)] == 0 || c1[string(KindCorrupt)] == 0 {
		t.Fatalf("not all wire faults fired: %v", c1)
	}
}

func TestIndependentStreams(t *testing.T) {
	// Removing one spec must not change another spec's decisions: the drop
	// stream is derived from (seed, index)... but index shifts if an earlier
	// spec is removed, so independence is defined as: the same spec list
	// prefix keeps identical streams when later specs are appended.
	run := func(extraDup bool) uint64 {
		s, b, _, _ := chaosRig(t)
		specs := []Spec{{Kind: KindDrop, Prob: 0.3}}
		if extraDup {
			specs = append(specs, Spec{Kind: KindDup, Prob: 0.2})
		}
		inj := New(s, Plan{Seed: 123, Specs: specs})
		inj.AttachBus(b)
		if err := inj.Start(); err != nil {
			t.Fatal(err)
		}
		s.RunUntil(time.Second)
		return inj.Counts()[string(KindDrop)]
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("appending a dup spec changed the drop stream: %d vs %d", a, b)
	}
}

func TestStopDisarmsPendingFaults(t *testing.T) {
	s, b, _, received := chaosRig(t)
	inj := New(s, Plan{Seed: 2, Specs: []Spec{
		{Kind: KindDrop, Prob: 1, At: 0},
		{Kind: KindJam, At: 500 * time.Millisecond},
	}})
	inj.AttachBus(b)
	if err := inj.Start(); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(100 * time.Millisecond)
	inj.Stop()
	before := inj.Counts()[string(KindDrop)]
	s.RunUntil(time.Second)
	if got := inj.Counts()[string(KindDrop)]; got != before {
		t.Fatalf("drops continued after Stop: %d -> %d", before, got)
	}
	if received() == 0 {
		t.Fatal("no frames delivered after Stop removed the interceptor")
	}
	if inj.Counts()[string(KindJam)] != 0 {
		t.Fatal("disarmed jam still fired")
	}
}

// TestRestartReplaysWireVerdicts starts, stops and restarts one injector.
// Each Start reseeds the wire streams and re-anchors their windows, so
// every run's verdicts equal a fresh injector's on the same plan.
func TestRestartReplaysWireVerdicts(t *testing.T) {
	plan := Plan{Seed: 31, Specs: []Spec{
		{Kind: KindDrop, Prob: 0.3},
		{Kind: KindDup, Prob: 0.2, At: 5 * time.Millisecond},
		{Kind: KindCorrupt, Prob: 0.5, At: 10 * time.Millisecond, For: 20 * time.Millisecond},
	}}
	newInjector := func() (*clock.Scheduler, *Injector) {
		s := clock.New()
		inj := New(s, plan)
		inj.AttachBus(bus.New(s))
		return s, inj
	}
	f := can.MustNew(0x100, []byte{1})
	run := func(s *clock.Scheduler, inj *Injector) []bus.TxAction {
		if err := inj.Start(); err != nil {
			t.Fatal(err)
		}
		defer inj.Stop()
		base := s.Now()
		out := make([]bus.TxAction, 0, 200)
		for k := 0; k < 200; k++ {
			s.RunUntil(base + time.Duration(k)*250*time.Microsecond)
			out = append(out, inj.intercept(f))
		}
		return out
	}
	want := run(newInjector())
	seen := map[bus.TxAction]bool{}
	for _, a := range want {
		seen[a] = true
	}
	if len(seen) != 4 {
		t.Fatalf("fresh run produced %d distinct verdicts, want all 4: %v", len(seen), seen)
	}
	s, inj := newInjector()
	for restart := 0; restart < 3; restart++ {
		if got := run(s, inj); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d after %d restarts diverged from a fresh injector", restart+1, restart)
		}
		s.RunUntil(s.Now() + 7*time.Millisecond) // restart at another instant
	}
}
