package obd

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ecu"
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

// TestTroubleCodeModesAnswerEmpty pins the mode 03 and mode 04 answers
// of a server that stores no trouble codes — every simulated ECU — on a
// fresh server and after a power cycle: 02 43 00 (zero codes) and 01 44.
func TestTroubleCodeModesAnswerEmpty(t *testing.T) {
	for _, powerCycle := range []bool{false, true} {
		for _, tc := range []struct {
			req, want []byte
		}{
			{[]byte{1, ModeDTCs}, []byte{2, ModeDTCs + positiveOffset, 0}},
			{[]byte{1, ModeClearDTCs}, []byte{1, ModeClearDTCs + positiveOffset}},
		} {
			s, srv, tester, resp := rig(t, Values{})
			if powerCycle {
				srv.e.PowerCycle()
			}
			request(t, tester, tc.req...)
			s.RunUntil(10 * time.Millisecond)
			if len(*resp) != 1 || !bytes.Equal((*resp)[0].Data[:(*resp)[0].Len], tc.want) {
				t.Fatalf("power cycle %v, request % X: responses %v, want one % X", powerCycle, tc.req, *resp, tc.want)
			}
		}
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
