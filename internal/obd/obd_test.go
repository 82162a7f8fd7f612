package obd

import (
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ecu"
	"repro/internal/isotp"
	"repro/internal/uds"
)

func rig(t *testing.T, vals Values) (*clock.Scheduler, *Server, *bus.Port, *[]can.Frame) {
	t.Helper()
	s := clock.New()
	b := bus.New(s)
	e := ecu.New("engine", s, b.Connect("engine"))
	srv := NewServer(e, IDResponseBase, vals)
	tester := b.Connect("tester")
	var responses []can.Frame
	tester.SetReceiver(func(m bus.Message) {
		if m.Frame.ID == IDResponseBase {
			responses = append(responses, m.Frame)
		}
	})
	return s, srv, tester, &responses
}

func request(t *testing.T, tester *bus.Port, data ...byte) {
	t.Helper()
	if err := tester.Send(can.MustNew(IDRequest, data)); err != nil {
		t.Fatal(err)
	}
}

// storeDTCs writes codes to the server's NVRAM in the format DTCs reads:
// each code followed by a zero byte.
func storeDTCs(srv *Server, codes ...string) {
	var raw []byte
	for _, c := range codes {
		raw = append(append(raw, c...), 0)
	}
	srv.e.NVWrite(dtcNVKey, raw)
}

// wantDTC fails unless hi, lo are the wire form of code.
func wantDTC(t *testing.T, hi, lo byte, code string) {
	t.Helper()
	wantHi, wantLo, err := encodeDTC(code)
	if err != nil {
		t.Fatal(err)
	}
	if hi != wantHi || lo != wantLo {
		t.Fatalf("DTC bytes %02X %02X, want %s = %02X %02X", hi, lo, code, wantHi, wantLo)
	}
}

func TestMode01RPM(t *testing.T) {
	s, _, tester, resp := rig(t, Values{RPM: func() float64 { return 856.25 }})
	request(t, tester, 2, ModeCurrentData, PIDEngineRPM)
	s.RunUntil(10 * time.Millisecond)
	if len(*resp) != 1 {
		t.Fatalf("responses = %d", len(*resp))
	}
	f := (*resp)[0]
	if f.Data[1] != ModeCurrentData+positiveOffset || f.Data[2] != PIDEngineRPM {
		t.Fatalf("response = %v", f)
	}
	raw := uint16(f.Data[3])<<8 | uint16(f.Data[4])
	if got := float64(raw) / 4; got != 856.25 {
		t.Fatalf("rpm = %v, want 856.25", got)
	}
}

func TestMode01SpeedAndCoolant(t *testing.T) {
	s, _, tester, resp := rig(t, Values{
		Speed:   func() float64 { return 88 },
		Coolant: func() float64 { return 90 },
	})
	request(t, tester, 2, ModeCurrentData, PIDSpeed)
	request(t, tester, 2, ModeCurrentData, PIDCoolantTemp)
	s.RunUntil(10 * time.Millisecond)
	if len(*resp) != 2 {
		t.Fatalf("responses = %d", len(*resp))
	}
	if (*resp)[0].Data[3] != 88 {
		t.Fatalf("speed byte = %d", (*resp)[0].Data[3])
	}
	if (*resp)[1].Data[3] != 130 { // 90 + 40
		t.Fatalf("coolant byte = %d", (*resp)[1].Data[3])
	}
}

func TestMode01SupportedBitmap(t *testing.T) {
	s, _, tester, resp := rig(t, Values{
		RPM:   func() float64 { return 0 },
		Speed: func() float64 { return 0 },
	})
	request(t, tester, 2, ModeCurrentData, PIDSupported)
	s.RunUntil(10 * time.Millisecond)
	if len(*resp) != 1 {
		t.Fatalf("responses = %d", len(*resp))
	}
	bitmap := uint32((*resp)[0].Data[3])<<24 | uint32((*resp)[0].Data[4])<<16 |
		uint32((*resp)[0].Data[5])<<8 | uint32((*resp)[0].Data[6])
	if bitmap&(1<<(32-PIDEngineRPM)) == 0 || bitmap&(1<<(32-PIDSpeed)) == 0 {
		t.Fatalf("bitmap = %#08x missing supported PIDs", bitmap)
	}
	if bitmap&(1<<(32-PIDCoolantTemp)) != 0 {
		t.Fatalf("bitmap = %#08x claims unsupported coolant", bitmap)
	}
}

func TestUnsupportedPIDNoAnswer(t *testing.T) {
	s, srv, tester, resp := rig(t, Values{})
	request(t, tester, 2, ModeCurrentData, 0x42)
	s.RunUntil(10 * time.Millisecond)
	if len(*resp) != 0 {
		t.Fatal("answered an unsupported PID")
	}
	if srv.Malformed() != 1 {
		t.Fatalf("malformed = %d", srv.Malformed())
	}
}

func TestMode03DTCsRoundTrip(t *testing.T) {
	s, srv, tester, resp := rig(t, Values{})
	storeDTCs(srv, "P0217", "U0100")
	request(t, tester, 1, ModeDTCs)
	s.RunUntil(10 * time.Millisecond)
	if len(*resp) != 1 {
		t.Fatalf("responses = %d", len(*resp))
	}
	f := (*resp)[0]
	if f.Data[1] != ModeDTCs+positiveOffset || f.Data[2] != 2 {
		t.Fatalf("response = %v", f)
	}
	wantDTC(t, f.Data[3], f.Data[4], "P0217")
	wantDTC(t, f.Data[5], f.Data[6], "U0100")
}

func TestMode04ClearsDTCs(t *testing.T) {
	s, srv, tester, resp := rig(t, Values{})
	storeDTCs(srv, "B1D00")
	request(t, tester, 1, ModeClearDTCs)
	s.RunUntil(10 * time.Millisecond)
	if len(*resp) != 1 || (*resp)[0].Data[1] != ModeClearDTCs+positiveOffset {
		t.Fatalf("responses = %v", *resp)
	}
	if len(srv.DTCs()) != 0 {
		t.Fatal("DTCs not cleared")
	}
}

func TestDTCsSurvivePowerCycle(t *testing.T) {
	s := clock.New()
	b := bus.New(s)
	e := ecu.New("engine", s, b.Connect("engine"))
	srv := NewServer(e, IDResponseBase, Values{})
	storeDTCs(srv, "P0300")
	e.PowerCycle()
	if got := srv.DTCs(); len(got) != 1 || got[0] != "P0300" {
		t.Fatalf("DTCs after power cycle = %v", got)
	}
}

func TestMalformedRequestsRejected(t *testing.T) {
	s, srv, tester, resp := rig(t, Values{RPM: func() float64 { return 1 }})
	bad := [][]byte{
		{},                         // empty -> dropped before handler sees data
		{9, ModeCurrentData, 0x0C}, // count exceeds frame
		{0, ModeCurrentData},       // zero count
		{1, ModeCurrentData},       // mode 01 needs a pid
		{2, 0x09, 0x02},            // unsupported mode
		{3, ModeDTCs, 1, 2},        // mode 03 takes no args
	}
	for _, d := range bad {
		if len(d) == 0 {
			continue // can't build an empty-but-sent request meaningfully
		}
		request(t, tester, d...)
	}
	s.RunUntil(50 * time.Millisecond)
	if len(*resp) != 0 {
		t.Fatalf("malformed requests answered: %v", *resp)
	}
	if srv.Malformed() == 0 {
		t.Fatal("malformed counter idle")
	}
}

func TestFuzzingOBDServerStaysDefensive(t *testing.T) {
	// Fuzz the OBD responder directly: a defensive parser must never send
	// garbage responses — every reply must be a well-formed positive
	// response. This is the §VII "unconsidered code paths" hunt applied to
	// a service that happens to be implemented correctly.
	s := clock.New()
	b := bus.New(s)
	e := ecu.New("engine", s, b.Connect("engine"))
	srv := NewServer(e, IDResponseBase, Values{
		RPM:     func() float64 { return 850 },
		Speed:   func() float64 { return 0 },
		Coolant: func() float64 { return 85 },
	})
	fuzzPort := b.Connect("fuzzer")
	var responses []can.Frame
	fuzzPort.SetReceiver(func(m bus.Message) {
		if m.Frame.ID == IDResponseBase {
			responses = append(responses, m.Frame)
		}
	})
	campaign, err := core.NewCampaign(s, fuzzPort, core.Config{
		Seed:      77,
		TargetIDs: []can.ID{IDRequest}, // hammer the request id
	})
	if err != nil {
		t.Fatal(err)
	}
	campaign.RunFor(60 * time.Second)
	for _, f := range responses {
		mode := f.Data[1]
		if mode != ModeCurrentData+positiveOffset && mode != ModeDTCs+positiveOffset &&
			mode != ModeClearDTCs+positiveOffset {
			t.Fatalf("garbage response under fuzzing: %v", f)
		}
	}
	if srv.Malformed() == 0 {
		t.Fatal("fuzzing produced no malformed requests (implausible)")
	}
	t.Logf("fuzz: %d malformed rejected, %d served, %d responses",
		srv.Malformed(), srv.Requests(), len(responses))
}

func TestDecodeDTCSystems(t *testing.T) {
	// SAE J2012: the system letter is the top two bits of the first byte.
	cases := map[string][2]byte{
		"P0217": {0x02, 0x17}, "C1234": {0x52, 0x34},
		"B1D00": {0x9D, 0x00}, "U0100": {0xC1, 0x00},
	}
	for code, want := range cases {
		wantDTC(t, want[0], want[1], code)
	}
	if _, _, err := encodeDTC("X0000"); err == nil {
		t.Fatal("bad system letter accepted")
	}
	if _, _, err := encodeDTC("P00"); err == nil {
		t.Fatal("short code accepted")
	}
	if _, _, err := encodeDTC("P0Z00"); err == nil {
		t.Fatal("bad digit accepted")
	}
}

func TestServerSatisfiesUDSDTCStore(t *testing.T) {
	// The OBD server doubles as the UDS DTC store: one NVRAM-backed code
	// base served over both J1979 mode 03 and UDS 0x19.
	s := clock.New()
	b := bus.New(s)
	e := ecu.New("engine", s, b.Connect("engine"))
	srv := NewServer(e, IDResponseBase, Values{})
	storeDTCs(srv, "P0217")

	var udsServer *uds.Server
	ep := isotp.NewEndpoint(s, e.Send, 0x7E9, 0x7E1, isotp.Config{},
		func(req []byte) { udsServer.HandleRequest(req) })
	udsServer = uds.NewServer(e, ep, uds.ServerConfig{DTCs: srv, EncodeDTC: EncodeDTC})
	e.Handle(0x7E1, ep.HandleFrame)

	tester := b.Connect("tester")
	var resp []byte
	cep := isotp.NewEndpoint(s, tester.Send, 0x7E1, 0x7E9, isotp.Config{},
		func(r []byte) { resp = r })
	tester.SetReceiver(cep.HandleFrame)

	// Read DTCs over UDS (0x19 reportDTCByStatusMask, all bits), compare
	// the wire bytes with the store.
	if err := cep.Send([]byte{uds.SvcReadDTCs, uds.ReportDTCByStatusMask, 0xFF}); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(time.Second)
	// Positive response: service, subfunc, availability, then hi lo fault status.
	if len(resp) != 3+4 || resp[0] != uds.SvcReadDTCs+0x40 {
		t.Fatalf("resp = % X", resp)
	}
	wantDTC(t, resp[3], resp[4], "P0217")

	// Clear all groups over UDS (0x14 FFFFFF); the J1979 view must empty too.
	if err := cep.Send([]byte{uds.SvcClearDTCs, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(2 * time.Second)
	if len(resp) != 1 || resp[0] != uds.SvcClearDTCs+0x40 {
		t.Fatalf("clear resp = % X", resp)
	}
	if len(srv.DTCs()) != 0 {
		t.Fatal("UDS clear did not reach the shared store")
	}
}
