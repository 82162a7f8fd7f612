package uds

import (
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/clock"
	"repro/internal/ecu"
	"repro/internal/isotp"
	"repro/internal/signal"
)

// knownNRCs is the set of negative response codes this server may emit.
var knownNRCs = map[byte]bool{
	NRCServiceNotSupported:          true,
	NRCSubFunctionNotSupported:      true,
	NRCIncorrectLength:              true,
	NRCConditionsNotCorrect:         true,
	NRCRequestOutOfRange:            true,
	NRCSecurityAccessDenied:         true,
	NRCInvalidKey:                   true,
	NRCExceededAttempts:             true,
	NRCServiceNotSupportedInSession: true,
}

// FuzzUDSDispatch drives the server with arbitrary request payloads over a
// real ISO-TP rig and checks the ISO 14229 dispatch contract: every
// observable reaction is either a positive response to the requested
// service (first byte = service + 0x40), a well-formed negative response
// ({0x7F, service, known NRC}), or silence — and the server never panics.
func FuzzUDSDispatch(f *testing.F) {
	f.Add([]byte{SvcSessionControl, SessionExtended})
	f.Add([]byte{SvcECUReset, ResetHard})
	f.Add([]byte{SvcReadDID, 0x01, 0x00})
	f.Add([]byte{SvcWriteDID, 0x01, 0x00, 0xAA})
	f.Add([]byte{SvcSecurityAccess, 0x01})
	f.Add([]byte{SvcTesterPresent, 0x80})
	f.Add([]byte{0x19, 0x02, 0xFF}) // unsupported: read trouble codes
	f.Add([]byte{0x99, 0x01, 0x02})
	f.Add([]byte{SvcSessionControl})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > isotp.MaxPayload {
			t.Skip()
		}
		s := clock.New()
		b := bus.New(s)

		stored := []byte{0x12, 0x34}
		cfg := ServerConfig{DIDs: map[DID]DIDEntry{
			0x0100: {Read: func() []byte { return stored },
				Write: func(v []byte) error { stored = append(stored[:0], v...); return nil }},
			0x0200: {Read: func() []byte { return []byte{0x01} }, Secured: true,
				Write: func([]byte) error { return nil }},
		}}

		ecuPort := b.Connect("ecu")
		e := ecu.New("dut", s, ecuPort)
		var server *Server
		serverEP := isotp.NewEndpoint(s, e.Send, signal.IDDiagResponse, signal.IDDiagRequest,
			isotp.Config{}, func(req []byte) { server.HandleRequest(req) })
		server = NewServer(e, serverEP, cfg)
		e.Handle(signal.IDDiagRequest, serverEP.HandleFrame)

		testerPort := b.Connect("tester")
		var responses [][]byte
		testerEP := isotp.NewEndpoint(s, testerPort.Send, signal.IDDiagRequest, signal.IDDiagResponse,
			isotp.Config{}, func(resp []byte) { responses = append(responses, resp) })
		testerEP.OnError(func(error) {})
		testerPort.SetReceiver(testerEP.HandleFrame)

		if err := testerEP.Send(data); err != nil {
			t.Skip() // transport rejected the request; nothing reached UDS
		}
		s.RunFor(3 * time.Second)

		svc := data[0]
		for _, resp := range responses {
			if len(resp) == 0 {
				t.Fatal("empty response payload")
			}
			switch resp[0] {
			case svc + positiveOffset:
				// Positive response to the requested service: fine.
			case negativeResponseID:
				if len(resp) != 3 {
					t.Fatalf("negative response of %d bytes: % X", len(resp), resp)
				}
				if resp[1] != svc {
					t.Fatalf("negative response names service %#x, request was %#x", resp[1], svc)
				}
				if !knownNRCs[resp[2]] {
					t.Fatalf("unknown NRC %#x", resp[2])
				}
			default:
				t.Fatalf("response % X is neither positive for %#x nor negative", resp, svc)
			}
		}
	})
}
