package engine

import (
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/clock"
	"repro/internal/ecu"
	"repro/internal/signal"
)

func rig(t *testing.T) (*clock.Scheduler, *bus.Bus, *Engine, *bus.Port) {
	t.Helper()
	s := clock.New()
	b := bus.New(s)
	e := ecu.New("engine", s, b.Connect("engine"))
	eng := New(e)
	peer := b.Connect("peer")
	return s, b, eng, peer
}

func TestIdleSettlesNearBase(t *testing.T) {
	s, _, eng, _ := rig(t)
	s.RunUntil(5 * time.Second)
	rpm := eng.RPM()
	if rpm < 700 || rpm > 1000 {
		t.Fatalf("idle RPM = %v, want ~850", rpm)
	}
}

func TestIdleWobbles(t *testing.T) {
	s, _, eng, _ := rig(t)
	s.RunUntil(2 * time.Second)
	seen := map[int]bool{}
	for i := 0; i < 50; i++ {
		s.RunFor(10 * time.Millisecond)
		seen[int(eng.RPM())] = true
	}
	if len(seen) < 5 {
		t.Fatalf("idle shows no combustion variation: %d distinct values", len(seen))
	}
}

func TestBroadcastsEngineData(t *testing.T) {
	s, _, _, peer := rig(t)
	def, _ := signal.VehicleDB().ByID(signal.IDEngineData)
	var rpms []float64
	peer.SetReceiver(func(m bus.Message) {
		if m.Frame.ID == signal.IDEngineData {
			vals := def.Decode(m.Frame)
			rpms = append(rpms, vals["EngineRPM"])
		}
	})
	s.RunUntil(time.Second)
	if len(rpms) < 90 { // 10 ms cycle => ~100 frames/s
		t.Fatalf("got %d EngineData frames, want ~100", len(rpms))
	}
	last := rpms[len(rpms)-1]
	if last < 600 || last > 1200 {
		t.Fatalf("broadcast RPM = %v, implausible at idle", last)
	}
}

func TestThrottleRaisesRPM(t *testing.T) {
	s, _, eng, _ := rig(t)
	s.RunUntil(2 * time.Second)
	eng.SetThrottle(50)
	s.RunUntil(5 * time.Second)
	if eng.RPM() < 2000 {
		t.Fatalf("RPM = %v at 50%% throttle, want > 2000", eng.RPM())
	}
	eng.SetThrottle(0)
	s.RunUntil(10 * time.Second)
	if eng.RPM() > 1100 {
		t.Fatalf("RPM = %v after closing throttle", eng.RPM())
	}
}

func TestThrottleClamped(t *testing.T) {
	_, _, eng, _ := rig(t)
	eng.SetThrottle(-10)
	if eng.throttle != 0 {
		t.Fatal("negative throttle not clamped")
	}
	eng.SetThrottle(200)
	if eng.throttle != 100 {
		t.Fatal("throttle not clamped to 100")
	}
}

func TestCoolantWarmsUp(t *testing.T) {
	s, _, eng, _ := rig(t)
	cold := eng.Coolant()
	s.RunUntil(60 * time.Second)
	warm := eng.Coolant()
	if warm <= cold+20 {
		t.Fatalf("coolant barely warmed: %v -> %v", cold, warm)
	}
	if warm > 95 {
		t.Fatalf("coolant overshot: %v", warm)
	}
}

func TestACLoadRaisesIdle(t *testing.T) {
	s, _, eng, peer := rig(t)
	s.RunUntil(3 * time.Second)
	base := eng.RPM()

	db := signal.VehicleDB()
	def, _ := db.ByName("Climate")
	f, err := def.Encode(map[string]float64{"ACCompressor": 1})
	if err != nil {
		t.Fatal(err)
	}
	peer.Send(f)
	s.RunUntil(6 * time.Second)
	if !eng.ACLoad() {
		t.Fatal("AC load not registered")
	}
	if eng.RPM() < base+80 {
		t.Fatalf("idle did not rise under AC load: %v -> %v", base, eng.RPM())
	}
}

func TestFuzzedClimateFramePerturbsIdle(t *testing.T) {
	// A malformed frame on the climate identifier flips the compressor
	// state: the unvalidated-input path behind the paper's erratic idle.
	s, _, eng, peer := rig(t)
	s.RunUntil(3 * time.Second)
	if eng.ACLoad() {
		t.Fatal("AC load set before fuzzing")
	}
	// Raw garbage with bit 0 of byte 0 set.
	peer.Send(can.MustNew(signal.IDClimate, []byte{0xFF, 0xEE, 0xDD}))
	s.RunUntil(4 * time.Second)
	if !eng.ACLoad() {
		t.Fatal("fuzzed frame did not flip AC load")
	}
}
