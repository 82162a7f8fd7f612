package vehicle

import (
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/clock"
	"repro/internal/gateway"
	"repro/internal/signal"
)

func newVehicle(t *testing.T, cfg Config) (*clock.Scheduler, *Vehicle) {
	t.Helper()
	s := clock.New()
	return s, New(s, cfg)
}

func TestIdleTrafficOnBothBuses(t *testing.T) {
	s, v := newVehicle(t, Config{})
	ptIDs := map[can.ID]int{}
	bodyIDs := map[can.ID]int{}
	v.TapOBD(OBDPowertrain, func(m bus.Message) { ptIDs[m.Frame.ID]++ })
	v.TapOBD(OBDBody, func(m bus.Message) { bodyIDs[m.Frame.ID]++ })
	s.RunUntil(2 * time.Second)

	for _, id := range []can.ID{signal.IDEngineData, signal.IDWheelSpeeds, signal.IDTransmission} {
		if ptIDs[id] == 0 {
			t.Errorf("no %s traffic on powertrain bus", id)
		}
	}
	for _, id := range []can.ID{signal.IDClusterGauges, signal.IDBodyStatus, signal.IDClimate, signal.IDFuel} {
		if bodyIDs[id] == 0 {
			t.Errorf("no %s traffic on body bus", id)
		}
	}
	// Gateway (ForwardAll) mirrors powertrain traffic onto the body bus.
	if bodyIDs[signal.IDEngineData] == 0 {
		t.Error("EngineData not forwarded to body bus")
	}
}

func TestEngineDataRatesMatchSchedule(t *testing.T) {
	s, v := newVehicle(t, Config{})
	count := 0
	v.TapOBD(OBDPowertrain, func(m bus.Message) {
		if m.Frame.ID == signal.IDEngineData {
			count++
		}
	})
	s.RunUntil(time.Second)
	if count < 95 || count > 105 {
		t.Fatalf("EngineData frames in 1s = %d, want ~100", count)
	}
}

func TestClusterFollowsEngineAtIdle(t *testing.T) {
	s, v := newVehicle(t, Config{})
	s.RunUntil(3 * time.Second)
	rpm := v.Cluster.DisplayedRPM()
	if rpm < 600 || rpm > 1200 {
		t.Fatalf("cluster RPM = %v, want idle ~850", rpm)
	}
	if v.Cluster.DisplayedSpeed() != 0 {
		t.Fatalf("cluster speed = %v at standstill", v.Cluster.DisplayedSpeed())
	}
	if len(v.Cluster.ECU().MILs()) != 0 {
		t.Fatalf("MILs lit during normal idle: %v", v.Cluster.ECU().MILs())
	}
}

func TestAppUnlockEndToEnd(t *testing.T) {
	s, v := newVehicle(t, Config{BCMAckUnlock: true})
	s.RunUntil(time.Second)
	if v.BCM.Unlocked() {
		t.Fatal("vehicle starts unlocked")
	}
	if err := v.HeadUnit.AppUnlock(AppToken); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(1100 * time.Millisecond)
	if !v.BCM.Unlocked() {
		t.Fatal("app unlock did not reach BCM")
	}
	if !v.HeadUnit.AckSeen() {
		t.Fatal("head unit saw no unlock ack")
	}
}

func TestOBDInjectionReachesBodyBusViaGateway(t *testing.T) {
	// Fuzzer on the powertrain OBD pins can still unlock the doors because
	// the legacy gateway forwards everything — the paper's MITM threat.
	s, v := newVehicle(t, Config{})
	obd := v.AttachOBD(OBDPowertrain, "attacker")
	s.RunUntil(time.Second)
	obd.Send(can.MustNew(signal.IDBodyCommand, []byte{signal.CmdUnlock, 0x5F, 1, 0, 0, 1, 0x20}))
	s.RunUntil(1200 * time.Millisecond)
	if !v.BCM.Unlocked() {
		t.Fatal("injected unlock did not cross the gateway")
	}
}

func TestAllowListGatewayBlocksInjection(t *testing.T) {
	s, v := newVehicle(t, Config{})
	v.Gateway.SetPolicy(gateway.AToB, gateway.AllowList)
	v.Gateway.Allow(gateway.AToB, signal.IDEngineData, signal.IDWheelSpeeds,
		signal.IDVehicleMotion, signal.IDTransmission)
	obd := v.AttachOBD(OBDPowertrain, "attacker")
	s.RunUntil(time.Second)
	obd.Send(can.MustNew(signal.IDBodyCommand, []byte{signal.CmdUnlock, 0x5F, 1, 0, 0, 1, 0x20}))
	s.RunUntil(1200 * time.Millisecond)
	if v.BCM.Unlocked() {
		t.Fatal("allow-list gateway let the unlock command through")
	}
	// The cluster still works: legitimate traffic is on the allow-list.
	if v.Cluster.DisplayedRPM() < 500 {
		t.Fatalf("cluster rpm = %v; legitimate traffic blocked too", v.Cluster.DisplayedRPM())
	}
}

func TestDeterministicTraffic(t *testing.T) {
	capture := func() []string {
		s := clock.New()
		v := New(s, Config{Seed: 99})
		var frames []string
		v.TapOBD(OBDBody, func(m bus.Message) { frames = append(frames, m.Frame.String()) })
		s.RunUntil(2 * time.Second)
		return frames
	}
	a, b := capture(), capture()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("capture lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("frame %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestDifferentSeedsDifferentTraffic(t *testing.T) {
	capture := func(seed int64) []string {
		s := clock.New()
		v := New(s, Config{Seed: seed})
		var frames []string
		v.TapOBD(OBDBody, func(m bus.Message) {
			if m.Frame.ID == signal.IDFuel {
				frames = append(frames, m.Frame.String())
			}
		})
		s.RunUntil(5 * time.Second)
		return frames
	}
	a, b := capture(1), capture(2)
	same := true
	for i := range a {
		if i < len(b) && a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fuel traffic")
	}
}

func TestClusterUDSCrashFlagReadable(t *testing.T) {
	s, v := newVehicle(t, Config{})
	s.RunUntil(time.Second)
	if v.ClusterUDS == nil {
		t.Fatal("cluster UDS server missing")
	}
	if v.ClusterUDS.Session() != 0x01 {
		t.Fatalf("session = %#x", v.ClusterUDS.Session())
	}
}

func TestBusLoadReasonableAtIdle(t *testing.T) {
	s, v := newVehicle(t, Config{})
	s.RunUntil(5 * time.Second)
	load := v.Powertrain.Load()
	if load <= 0 || load > 0.5 {
		t.Fatalf("powertrain load = %v, want (0, 0.5]", load)
	}
}

func TestOBDRequestOverOBDPort(t *testing.T) {
	// A scan tool on the powertrain OBD pins asks for engine RPM (J1979
	// mode 01 PID 0C) and gets the live value back.
	s, v := newVehicle(t, Config{})
	s.RunUntil(3 * time.Second)
	tool := v.AttachOBD(OBDPowertrain, "scantool")
	var rpm float64 = -1
	tool.SetReceiver(func(m bus.Message) {
		if m.Frame.ID == 0x7E8 && m.Frame.Data[1] == 0x41 && m.Frame.Data[2] == 0x0C {
			raw := uint16(m.Frame.Data[3])<<8 | uint16(m.Frame.Data[4])
			rpm = float64(raw) / 4
		}
	})
	tool.Send(can.MustNew(0x7DF, []byte{2, 0x01, 0x0C}))
	s.RunUntil(s.Now() + 100*time.Millisecond)
	if rpm < 600 || rpm > 1200 {
		t.Fatalf("OBD-reported RPM = %v, want idle", rpm)
	}
}

func TestDriveRaisesSpeedAndGear(t *testing.T) {
	s, v := newVehicle(t, Config{})
	s.RunUntil(2 * time.Second)
	v.Drive(40)
	s.RunUntil(30 * time.Second)
	if v.RoadSpeed() < 30 {
		t.Fatalf("road speed = %v after sustained throttle", v.RoadSpeed())
	}
	// The cluster speedometer follows via ClusterGauges.
	if v.Cluster.DisplayedSpeed() < 20 {
		t.Fatalf("cluster speed = %v", v.Cluster.DisplayedSpeed())
	}
	// The transmission broadcasts a forward gear.
	def, _ := signal.VehicleDB().ByID(signal.IDTransmission)
	var gear float64
	v.TapOBD(OBDPowertrain, func(m bus.Message) {
		if m.Frame.ID == signal.IDTransmission {
			vals := def.Decode(m.Frame)
			gear = vals["GearEngaged"]
		}
	})
	s.RunUntil(s.Now() + time.Second)
	if gear < 1 {
		t.Fatalf("gear = %v while moving", gear)
	}
	// Lifting off coasts back down.
	v.Drive(0)
	s.RunUntil(s.Now() + 120*time.Second)
	if v.RoadSpeed() > 5 {
		t.Fatalf("road speed = %v after coasting 2 minutes", v.RoadSpeed())
	}
}

func TestOBDSpeedReflectsDriving(t *testing.T) {
	s, v := newVehicle(t, Config{})
	v.Drive(50)
	s.RunUntil(30 * time.Second)
	tool := v.AttachOBD(OBDPowertrain, "scantool")
	var speed float64 = -1
	tool.SetReceiver(func(m bus.Message) {
		if m.Frame.ID == 0x7E8 && m.Frame.Data[2] == 0x0D {
			speed = float64(m.Frame.Data[3])
		}
	})
	tool.Send(can.MustNew(0x7DF, []byte{2, 0x01, 0x0D}))
	s.RunUntil(s.Now() + 100*time.Millisecond)
	if speed < 30 {
		t.Fatalf("OBD speed = %v while driving", speed)
	}
}
