package uds

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/clock"
	"repro/internal/ecu"
	"repro/internal/isotp"
	"repro/internal/signal"
)

// testRig wires a tester client and an ECU server over a simulated bus
// using the standard OBD request/response identifiers.
type testRig struct {
	s      *clock.Scheduler
	e      *ecu.ECU
	server *Server
	client *Client
}

func newRig(t *testing.T, cfg ServerConfig) *testRig {
	t.Helper()
	s := clock.New()
	b := bus.New(s)

	ecuPort := b.Connect("ecu")
	e := ecu.New("dut", s, ecuPort)
	var server *Server
	serverEP := isotp.NewEndpoint(s, e.Send, signal.IDDiagResponse, signal.IDDiagRequest,
		isotp.Config{}, func(req []byte) { server.HandleRequest(req) })
	server = NewServer(e, serverEP, cfg)
	e.Handle(signal.IDDiagRequest, serverEP.HandleFrame)

	testerPort := b.Connect("tester")
	var client *Client
	clientEP := isotp.NewEndpoint(s, testerPort.Send, signal.IDDiagRequest, signal.IDDiagResponse,
		isotp.Config{}, func(resp []byte) { client.HandleResponse(resp) })
	client = NewClient(s, clientEP)
	testerPort.SetReceiver(clientEP.HandleFrame)

	return &testRig{s: s, e: e, server: server, client: client}
}

// run advances the sim one virtual second: enough for any exchange here,
// short enough not to trip the 5 s S3 session timeout.
func (r *testRig) run() { r.s.RunUntil(r.s.Now() + time.Second) }

func defaultKey(seed []byte) []byte {
	key := make([]byte, len(seed))
	for i, b := range seed {
		key[i] = b ^ 0x5A
	}
	return key
}

func TestSessionControl(t *testing.T) {
	r := newRig(t, ServerConfig{})
	var got []byte
	var gotErr error
	r.client.ChangeSession(SessionExtended, func(d []byte, err error) { got, gotErr = d, err })
	r.run()
	if gotErr != nil {
		t.Fatalf("err = %v", gotErr)
	}
	if len(got) < 1 || got[0] != SessionExtended {
		t.Fatalf("resp = %v", got)
	}
	if r.server.Session() != SessionExtended {
		t.Fatalf("session = %#x", r.server.Session())
	}
}

func TestSessionControlBadSubFunction(t *testing.T) {
	r := newRig(t, ServerConfig{})
	var gotErr error
	r.client.ChangeSession(0x42, func(d []byte, err error) { gotErr = err })
	r.run()
	var neg *NegativeError
	if !errors.As(gotErr, &neg) || neg.Code != NRCSubFunctionNotSupported {
		t.Fatalf("err = %v, want subFunctionNotSupported", gotErr)
	}
}

// wantServiceNotSupported sends req and checks for the 7F <svc> 11 answer.
func wantServiceNotSupported(t *testing.T, req []byte) {
	t.Helper()
	r := newRig(t, ServerConfig{})
	var gotErr error
	r.client.request(req[0], req[1:], func(d []byte, err error) { gotErr = err })
	r.run()
	var neg *NegativeError
	if !errors.As(gotErr, &neg) || neg.Service != req[0] || neg.Code != NRCServiceNotSupported {
		t.Fatalf("request % X: err = %v, want 7F %02X 11", req, gotErr, req[0])
	}
}

func TestUnknownServiceRejected(t *testing.T) {
	wantServiceNotSupported(t, []byte{0x31})
}

// TestReadDTCsUnsupportedWithoutStore pins the 7F <svc> 11 answer to read
// (0x19) and clear (0x14) diagnostic trouble codes: the server keeps no
// trouble-code store, as no simulated ECU stores any.
func TestReadDTCsUnsupportedWithoutStore(t *testing.T) {
	wantServiceNotSupported(t, []byte{0x19, 0x02, 0xFF})       // readDTCInformation, reportDTCByStatusMask
	wantServiceNotSupported(t, []byte{0x14, 0xFF, 0xFF, 0xFF}) // clearDiagnosticInformation, all groups
}

func TestReadDID(t *testing.T) {
	vin := []byte("SIMVIN1234567890X")
	r := newRig(t, ServerConfig{
		DIDs: map[DID]DIDEntry{
			0xF190: {Read: func() []byte { return vin }},
		},
	})
	var got []byte
	var gotErr error
	r.client.request(SvcReadDID, []byte{0xF1, 0x90}, func(d []byte, err error) { got, gotErr = d[2:], err })
	r.run()
	if gotErr != nil {
		t.Fatalf("err = %v", gotErr)
	}
	if !bytes.Equal(got, vin) {
		t.Fatalf("got %q, want %q", got, vin)
	}
}

func TestReadUnknownDID(t *testing.T) {
	r := newRig(t, ServerConfig{})
	var gotErr error
	r.client.request(SvcReadDID, []byte{0x12, 0x34}, func(d []byte, err error) { gotErr = err })
	r.run()
	var neg *NegativeError
	if !errors.As(gotErr, &neg) || neg.Code != NRCRequestOutOfRange {
		t.Fatalf("err = %v, want requestOutOfRange", gotErr)
	}
}

func TestWriteDIDRequiresNonDefaultSession(t *testing.T) {
	var stored []byte
	r := newRig(t, ServerConfig{
		DIDs: map[DID]DIDEntry{
			0x0100: {Write: func(v []byte) error { stored = append([]byte(nil), v...); return nil }},
		},
	})
	var gotErr error
	r.client.WriteDID(0x0100, []byte{1, 2}, func(d []byte, err error) { gotErr = err })
	r.run()
	var neg *NegativeError
	if !errors.As(gotErr, &neg) || neg.Code != NRCServiceNotSupportedInSession {
		t.Fatalf("err = %v, want serviceNotSupportedInActiveSession", gotErr)
	}
	if stored != nil {
		t.Fatal("write happened in default session")
	}
}

func TestWriteDIDInExtendedSession(t *testing.T) {
	var stored []byte
	r := newRig(t, ServerConfig{
		DIDs: map[DID]DIDEntry{
			0x0100: {Write: func(v []byte) error { stored = append([]byte(nil), v...); return nil }},
		},
	})
	r.client.ChangeSession(SessionExtended, func([]byte, error) {
		r.client.WriteDID(0x0100, []byte{7, 8, 9}, func([]byte, error) {})
	})
	r.run()
	if !bytes.Equal(stored, []byte{7, 8, 9}) {
		t.Fatalf("stored = %v", stored)
	}
}

func TestSecuredWriteRequiresUnlock(t *testing.T) {
	r := newRig(t, ServerConfig{
		DIDs: map[DID]DIDEntry{
			0x0200: {Secured: true, Write: func([]byte) error { return nil }},
		},
	})
	var gotErr error
	r.client.ChangeSession(SessionExtended, func([]byte, error) {
		r.client.WriteDID(0x0200, []byte{1}, func(d []byte, err error) { gotErr = err })
	})
	r.run()
	var neg *NegativeError
	if !errors.As(gotErr, &neg) || neg.Code != NRCSecurityAccessDenied {
		t.Fatalf("err = %v, want securityAccessDenied", gotErr)
	}
}

func TestSecurityUnlockFlow(t *testing.T) {
	written := false
	r := newRig(t, ServerConfig{
		DIDs: map[DID]DIDEntry{
			0x0200: {Secured: true, Write: func([]byte) error { written = true; return nil }},
		},
	})
	r.client.ChangeSession(SessionExtended, func([]byte, error) {
		r.client.Unlock(0x01, defaultKey, func(d []byte, err error) {
			if err != nil {
				t.Errorf("unlock: %v", err)
				return
			}
			r.client.WriteDID(0x0200, []byte{1}, func([]byte, error) {})
		})
	})
	r.run()
	if !written {
		t.Fatal("secured write failed after unlock")
	}
}

func TestSecurityAccessRequiresSession(t *testing.T) {
	r := newRig(t, ServerConfig{})
	var gotErr error
	r.client.RequestSeed(0x01, func(d []byte, err error) { gotErr = err })
	r.run()
	var neg *NegativeError
	if !errors.As(gotErr, &neg) || neg.Code != NRCServiceNotSupportedInSession {
		t.Fatalf("err = %v", gotErr)
	}
}

func TestInvalidKeyCountsAttempts(t *testing.T) {
	r := newRig(t, ServerConfig{})
	badKey := func(seed []byte) []byte { return []byte{0, 0, 0, 0} }
	var errs []error
	// Chain three bad attempts back-to-back inside one session window.
	var attempt func(remaining int)
	attempt = func(remaining int) {
		r.client.Unlock(0x01, badKey, func(d []byte, err error) {
			errs = append(errs, err)
			if remaining > 1 {
				attempt(remaining - 1)
			}
		})
	}
	r.client.ChangeSession(SessionExtended, func([]byte, error) { attempt(3) })
	r.run()
	if len(errs) != 3 {
		t.Fatalf("got %d results", len(errs))
	}
	var neg *NegativeError
	if !errors.As(errs[0], &neg) || neg.Code != NRCInvalidKey {
		t.Fatalf("first err = %v, want invalidKey", errs[0])
	}
	if !errors.As(errs[2], &neg) || neg.Code != NRCExceededAttempts {
		t.Fatalf("third err = %v, want exceededAttempts", errs[2])
	}
	// Further seed requests are refused.
	var seedErr error
	r.client.RequestSeed(0x01, func(d []byte, err error) { seedErr = err })
	r.run()
	if !errors.As(seedErr, &neg) || neg.Code != NRCExceededAttempts {
		t.Fatalf("seed err = %v, want exceededAttempts", seedErr)
	}
}

func TestECUResetPowerCycles(t *testing.T) {
	r := newRig(t, ServerConfig{})
	r.e.SetMIL("TEST", true)
	var got []byte
	r.client.request(SvcECUReset, []byte{ResetHard}, func(d []byte, err error) { got = d })
	r.run()
	if len(got) < 1 || got[0] != ResetHard {
		t.Fatalf("resp = %v", got)
	}
	if r.e.MILOn("TEST") {
		t.Fatal("MIL survived ECU reset")
	}
	if !r.e.Powered() {
		t.Fatal("ECU not powered after reset")
	}
}

func TestS3TimeoutFallsBackToDefault(t *testing.T) {
	r := newRig(t, ServerConfig{})
	r.client.ChangeSession(SessionExtended, func([]byte, error) {})
	r.run()
	if r.server.Session() != SessionExtended {
		t.Fatal("session change failed")
	}
	// No tester present for > 5 s.
	r.s.RunUntil(r.s.Now() + 6*time.Second)
	if r.server.Session() != SessionDefault {
		t.Fatalf("session = %#x, want default after S3 timeout", r.server.Session())
	}
}

func TestTesterPresentKeepsSessionAlive(t *testing.T) {
	r := newRig(t, ServerConfig{})
	r.client.ChangeSession(SessionExtended, func([]byte, error) {})
	r.run()
	// Send tester present every 2 s for 12 s.
	for i := 0; i < 6; i++ {
		r.s.RunUntil(r.s.Now() + 2*time.Second)
		r.client.request(SvcTesterPresent, []byte{0x00}, func([]byte, error) {})
	}
	r.s.RunUntil(r.s.Now() + time.Second)
	if r.server.Session() != SessionExtended {
		t.Fatal("session expired despite tester present")
	}
}

func TestClientBusy(t *testing.T) {
	r := newRig(t, ServerConfig{})
	r.client.ChangeSession(SessionExtended, func([]byte, error) {})
	if err := r.client.request(SvcTesterPresent, []byte{0x00}, func([]byte, error) {}); !errors.Is(err, ErrClientBusy) {
		t.Fatalf("err = %v, want ErrClientBusy", err)
	}
}

func TestClientTimeoutWhenServerDead(t *testing.T) {
	r := newRig(t, ServerConfig{})
	r.e.PowerOff()
	var gotErr error
	r.client.request(SvcTesterPresent, []byte{0x00}, func(d []byte, err error) { gotErr = err })
	r.s.RunUntil(r.s.Now() + 5*time.Second) // exceed the 2 s client timeout
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", gotErr)
	}
	if r.client.cb != nil {
		t.Fatal("client stuck busy after timeout")
	}
}

func TestMultiFrameDIDValue(t *testing.T) {
	blob := bytes.Repeat([]byte{0xA5}, 64)
	r := newRig(t, ServerConfig{
		DIDs: map[DID]DIDEntry{0xF1A0: {Read: func() []byte { return blob }}},
	})
	var got []byte
	r.client.request(SvcReadDID, []byte{0xF1, 0xA0}, func(d []byte, err error) { got = d[2:] })
	r.run()
	if !bytes.Equal(got, blob) {
		t.Fatalf("multi-frame DID read failed: %d bytes", len(got))
	}
}

func TestNRCName(t *testing.T) {
	if NRCName(NRCInvalidKey) != "invalidKey" {
		t.Fatal("NRCName(invalidKey) wrong")
	}
	if NRCName(0xEE) == "" {
		t.Fatal("unknown NRC name empty")
	}
}

func TestNegativeErrorString(t *testing.T) {
	e := &NegativeError{Service: SvcReadDID, Code: NRCRequestOutOfRange}
	if e.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestSoftReset(t *testing.T) {
	r := newRig(t, ServerConfig{})
	var got []byte
	r.client.request(SvcECUReset, []byte{ResetSoft}, func(d []byte, err error) { got = d })
	r.run()
	if len(got) < 1 || got[0] != ResetSoft {
		t.Fatalf("resp = %v", got)
	}
}

func TestResetBadSubFunction(t *testing.T) {
	r := newRig(t, ServerConfig{})
	var gotErr error
	r.client.request(SvcECUReset, []byte{0x7E}, func(d []byte, err error) { gotErr = err })
	r.run()
	var neg *NegativeError
	if !errors.As(gotErr, &neg) || neg.Code != NRCSubFunctionNotSupported {
		t.Fatalf("err = %v", gotErr)
	}
}

func TestSeedAllZeroWhenAlreadyUnlocked(t *testing.T) {
	r := newRig(t, ServerConfig{})
	var secondSeed []byte
	r.client.ChangeSession(SessionExtended, func([]byte, error) {
		r.client.Unlock(0x01, defaultKey, func([]byte, error) {
			r.client.RequestSeed(0x01, func(seed []byte, err error) { secondSeed = seed })
		})
	})
	r.run()
	if len(secondSeed) == 0 {
		t.Fatal("no second seed")
	}
	for _, b := range secondSeed {
		if b != 0 {
			t.Fatalf("seed after unlock = % X, want all-zero per ISO", secondSeed)
		}
	}
}

func TestSendKeyWithoutSeedRequest(t *testing.T) {
	r := newRig(t, ServerConfig{})
	var gotErr error
	r.client.ChangeSession(SessionExtended, func([]byte, error) {
		r.client.SendKey(0x01, []byte{1, 2, 3, 4}, func(d []byte, err error) { gotErr = err })
	})
	r.run()
	var neg *NegativeError
	if !errors.As(gotErr, &neg) || neg.Code != NRCConditionsNotCorrect {
		t.Fatalf("err = %v, want conditionsNotCorrect", gotErr)
	}
}

func TestSecurityAccessBadSubFunction(t *testing.T) {
	r := newRig(t, ServerConfig{})
	var gotErr error
	r.client.ChangeSession(SessionExtended, func([]byte, error) {
		r.client.request(SvcSecurityAccess, []byte{0x63}, func(d []byte, err error) { gotErr = err })
	})
	r.run()
	var neg *NegativeError
	if !errors.As(gotErr, &neg) || neg.Code != NRCSubFunctionNotSupported {
		t.Fatalf("err = %v", gotErr)
	}
}

func TestWriteToReadOnlyDID(t *testing.T) {
	r := newRig(t, ServerConfig{
		DIDs: map[DID]DIDEntry{0xF190: {Read: func() []byte { return []byte{1} }}},
	})
	var gotErr error
	r.client.ChangeSession(SessionExtended, func([]byte, error) {
		r.client.WriteDID(0xF190, []byte{9}, func(d []byte, err error) { gotErr = err })
	})
	r.run()
	var neg *NegativeError
	if !errors.As(gotErr, &neg) || neg.Code != NRCRequestOutOfRange {
		t.Fatalf("err = %v", gotErr)
	}
}

func TestWriteHandlerErrorMapsToConditionsNotCorrect(t *testing.T) {
	r := newRig(t, ServerConfig{
		DIDs: map[DID]DIDEntry{0x0100: {Write: func([]byte) error { return errors.New("nope") }}},
	})
	var gotErr error
	r.client.ChangeSession(SessionExtended, func([]byte, error) {
		r.client.WriteDID(0x0100, []byte{1}, func(d []byte, err error) { gotErr = err })
	})
	r.run()
	var neg *NegativeError
	if !errors.As(gotErr, &neg) || neg.Code != NRCConditionsNotCorrect {
		t.Fatalf("err = %v", gotErr)
	}
}

func TestMalformedRequestLengths(t *testing.T) {
	// Drive the server directly with malformed payloads; it must answer
	// incorrectMessageLength, never panic.
	r := newRig(t, ServerConfig{})
	for _, req := range [][]byte{
		{SvcSessionControl},
		{SvcECUReset},
		{SvcReadDID, 0x01},
		{SvcWriteDID, 0x01, 0x02},
		{SvcSecurityAccess},
		{SvcTesterPresent},
	} {
		r.server.HandleRequest(req)
	}
	r.server.HandleRequest(nil) // ignored entirely
	r.run()
	if r.server.Session() != SessionDefault {
		t.Fatal("malformed requests changed session state")
	}
}

func TestServerSessionAccessors(t *testing.T) {
	r := newRig(t, ServerConfig{})
	if r.server.Session() != SessionDefault {
		t.Fatal("fresh server not in default session")
	}
}
