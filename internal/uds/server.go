package uds

import (
	"encoding/binary"
	"time"

	"repro/internal/clock"
	"repro/internal/ecu"
	"repro/internal/isotp"
)

// s3Timeout is the ISO S3-server timeout: without tester-present the server
// falls back to the default session.
const s3Timeout = 5 * time.Second

// maxKeyAttempts bounds invalid security keys before lock-out.
const maxKeyAttempts = 3

// DID is a 16-bit data identifier.
type DID uint16

// DIDEntry describes one data identifier exposed by a server.
type DIDEntry struct {
	// Read returns the current value; nil means the DID is write-only.
	Read func() []byte
	// Write stores a new value; nil means the DID is read-only.
	Write func([]byte) error
	// Secured marks the DID as requiring an unlocked security session for
	// writes (reads are always allowed if Read is non-nil).
	Secured bool
}

// ServerConfig configures a UDS server.
type ServerConfig struct {
	// DIDs maps data identifiers to entries.
	DIDs map[DID]DIDEntry
	// SecurityLevel is the supported odd requestSeed sub-function
	// (default 0x01).
	SecurityLevel byte
	// KeyFromSeed computes the expected key for a seed; the default
	// algorithm XORs each seed byte with 0x5A (a deliberately weak scheme,
	// typical of the legacy implementations security testing targets).
	KeyFromSeed func([]byte) []byte
	// Seed generates the next seed; the default derives it from the
	// virtual clock so runs are deterministic.
	Seed func() []byte
}

// Server implements the ECU side of UDS. It owns the diagnostic session;
// an ECU reset power-cycles the underlying ecu.ECU.
type Server struct {
	e   *ecu.ECU
	ep  *isotp.Endpoint
	cfg ServerConfig

	session     byte
	unlocked    bool
	pendingSeed []byte
	keyAttempts int
	s3          *clock.Timer
}

// NewServer attaches a UDS server to an ECU via an ISO-TP endpoint. The
// caller wires endpoint.HandleFrame into the ECU's dispatch.
func NewServer(e *ecu.ECU, ep *isotp.Endpoint, cfg ServerConfig) *Server {
	if cfg.SecurityLevel == 0 {
		cfg.SecurityLevel = 0x01
	}
	if cfg.KeyFromSeed == nil {
		cfg.KeyFromSeed = func(seed []byte) []byte {
			key := make([]byte, len(seed))
			for i, b := range seed {
				key[i] = b ^ 0x5A
			}
			return key
		}
	}
	s := &Server{e: e, ep: ep, cfg: cfg, session: SessionDefault}
	if s.cfg.Seed == nil {
		s.cfg.Seed = func() []byte {
			var seed [4]byte
			binary.BigEndian.PutUint32(seed[:], uint32(e.Now()/time.Microsecond)|1)
			return seed[:]
		}
	}
	return s
}

// Session returns the active diagnostic session.
func (s *Server) Session() byte { return s.session }

// HandleRequest processes one ISO-TP request payload. Wire it as the
// endpoint's onMessage callback.
func (s *Server) HandleRequest(req []byte) {
	if len(req) == 0 {
		return
	}
	svc := req[0]
	switch svc {
	case SvcSessionControl:
		s.handleSessionControl(req)
	case SvcECUReset:
		s.handleECUReset(req)
	case SvcReadDID:
		s.handleReadDID(req)
	case SvcWriteDID:
		s.handleWriteDID(req)
	case SvcSecurityAccess:
		s.handleSecurityAccess(req)
	case SvcTesterPresent:
		s.handleTesterPresent(req)
	default:
		s.negative(svc, NRCServiceNotSupported)
	}
}

func (s *Server) respond(payload []byte) {
	// Response transmission errors are deliberately dropped: a UDS server
	// whose response is lost simply times out on the client side.
	_ = s.ep.Send(payload)
}

func (s *Server) negative(svc, code byte) {
	s.respond([]byte{negativeResponseID, svc, code})
}

func (s *Server) handleSessionControl(req []byte) {
	if len(req) != 2 {
		s.negative(SvcSessionControl, NRCIncorrectLength)
		return
	}
	sub := req[1] & 0x7F
	switch sub {
	case SessionDefault, SessionProgramming, SessionExtended:
	default:
		s.negative(SvcSessionControl, NRCSubFunctionNotSupported)
		return
	}
	s.enterSession(sub)
	// Respond with session and the standard P2/P2* timing parameters.
	s.respond([]byte{SvcSessionControl + positiveOffset, sub, 0x00, 0x32, 0x01, 0xF4})
}

func (s *Server) enterSession(sub byte) {
	s.session = sub
	switch sub {
	case SessionDefault:
		s.unlocked = false
		s.pendingSeed = nil
		s.stopS3()
	case SessionProgramming, SessionExtended:
		s.armS3()
	}
}

func (s *Server) armS3() {
	s.stopS3()
	s.s3 = s.e.Scheduler().After(s3Timeout, func() {
		s.enterSession(SessionDefault)
	})
}

func (s *Server) stopS3() {
	if s.s3 != nil {
		s.s3.Stop()
		s.s3 = nil
	}
}

func (s *Server) handleECUReset(req []byte) {
	if len(req) != 2 {
		s.negative(SvcECUReset, NRCIncorrectLength)
		return
	}
	sub := req[1] & 0x7F
	if sub != ResetHard && sub != ResetSoft {
		s.negative(SvcECUReset, NRCSubFunctionNotSupported)
		return
	}
	s.respond([]byte{SvcECUReset + positiveOffset, sub})
	s.session = SessionDefault
	s.unlocked = false
	s.pendingSeed = nil
	s.stopS3()
	// Power-cycle after the response has been queued: a hard reset reboots
	// the ECU, clearing volatile state.
	s.e.Scheduler().After(time.Millisecond, s.e.PowerCycle)
}

func (s *Server) handleReadDID(req []byte) {
	if len(req) != 3 {
		s.negative(SvcReadDID, NRCIncorrectLength)
		return
	}
	did := DID(binary.BigEndian.Uint16(req[1:3]))
	entry, ok := s.cfg.DIDs[did]
	if !ok || entry.Read == nil {
		s.negative(SvcReadDID, NRCRequestOutOfRange)
		return
	}
	value := entry.Read()
	resp := make([]byte, 0, 3+len(value))
	resp = append(resp, SvcReadDID+positiveOffset, byte(did>>8), byte(did))
	resp = append(resp, value...)
	s.respond(resp)
}

func (s *Server) handleWriteDID(req []byte) {
	if len(req) < 4 {
		s.negative(SvcWriteDID, NRCIncorrectLength)
		return
	}
	if s.session == SessionDefault {
		s.negative(SvcWriteDID, NRCServiceNotSupportedInSession)
		return
	}
	did := DID(binary.BigEndian.Uint16(req[1:3]))
	entry, ok := s.cfg.DIDs[did]
	if !ok || entry.Write == nil {
		s.negative(SvcWriteDID, NRCRequestOutOfRange)
		return
	}
	if entry.Secured && !s.unlocked {
		s.negative(SvcWriteDID, NRCSecurityAccessDenied)
		return
	}
	if err := entry.Write(req[3:]); err != nil {
		s.negative(SvcWriteDID, NRCConditionsNotCorrect)
		return
	}
	s.respond([]byte{SvcWriteDID + positiveOffset, byte(did >> 8), byte(did)})
}

func (s *Server) handleSecurityAccess(req []byte) {
	if len(req) < 2 {
		s.negative(SvcSecurityAccess, NRCIncorrectLength)
		return
	}
	if s.session == SessionDefault {
		s.negative(SvcSecurityAccess, NRCServiceNotSupportedInSession)
		return
	}
	sub := req[1]
	switch sub {
	case s.cfg.SecurityLevel: // requestSeed
		if s.keyAttempts >= maxKeyAttempts {
			s.negative(SvcSecurityAccess, NRCExceededAttempts)
			return
		}
		if s.unlocked {
			// Already unlocked: all-zero seed per ISO.
			s.respond([]byte{SvcSecurityAccess + positiveOffset, sub, 0, 0, 0, 0})
			return
		}
		s.pendingSeed = s.cfg.Seed()
		resp := append([]byte{SvcSecurityAccess + positiveOffset, sub}, s.pendingSeed...)
		s.respond(resp)
	case s.cfg.SecurityLevel + 1: // sendKey
		if s.pendingSeed == nil {
			s.negative(SvcSecurityAccess, NRCConditionsNotCorrect)
			return
		}
		want := s.cfg.KeyFromSeed(s.pendingSeed)
		got := req[2:]
		if !bytesEqual(want, got) {
			s.keyAttempts++
			s.pendingSeed = nil
			if s.keyAttempts >= maxKeyAttempts {
				s.negative(SvcSecurityAccess, NRCExceededAttempts)
			} else {
				s.negative(SvcSecurityAccess, NRCInvalidKey)
			}
			return
		}
		s.unlocked = true
		s.keyAttempts = 0
		s.pendingSeed = nil
		s.respond([]byte{SvcSecurityAccess + positiveOffset, sub})
	default:
		s.negative(SvcSecurityAccess, NRCSubFunctionNotSupported)
	}
}

func (s *Server) handleTesterPresent(req []byte) {
	if len(req) != 2 {
		s.negative(SvcTesterPresent, NRCIncorrectLength)
		return
	}
	suppress := req[1]&0x80 != 0
	if s.session != SessionDefault {
		s.armS3()
	}
	if !suppress {
		s.respond([]byte{SvcTesterPresent + positiveOffset, req[1] & 0x7F})
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
