// Package obd implements the SAE J1979 / OBD-II services the paper's
// physical attack surface exposes: the fuzzer connects "to the vehicle
// using an OBD cable" (§VI), and the in-cabin OBD port is how aftermarket
// dongles mount the MITM attack of §IV. The service layer gives the
// simulated vehicle a realistic diagnostic responder: a functional request
// on identifier 0x7DF answered on the ECU's response identifier, with
// mode 01 live data (engine RPM, vehicle speed, coolant temperature).
// No simulated ECU stores trouble codes, so mode 03 always reports zero
// codes and mode 04 (clear) has nothing to erase.
package obd

import (
	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/ecu"
)

// Functional request and default response identifiers.
const (
	// IDRequest is the broadcast OBD request identifier.
	IDRequest can.ID = 0x7DF
	// IDResponseBase is the first physical response identifier; ECU n
	// responds at IDResponseBase+n.
	IDResponseBase can.ID = 0x7E8
)

// Service modes.
const (
	ModeCurrentData = 0x01
	ModeDTCs        = 0x03
	ModeClearDTCs   = 0x04
	positiveOffset  = 0x40
)

// Mode 01 PIDs supported by the server.
const (
	PIDSupported   = 0x00
	PIDCoolantTemp = 0x05
	PIDEngineRPM   = 0x0C
	PIDSpeed       = 0x0D
)

// Values supplies live data to the server. Nil funcs mean unsupported.
type Values struct {
	// RPM returns the current engine speed.
	RPM func() float64
	// Speed returns the current vehicle speed in km/h.
	Speed func() float64
	// Coolant returns the coolant temperature in degC.
	Coolant func() float64
}

// Server answers OBD-II requests on behalf of one ECU.
type Server struct {
	e      *ecu.ECU
	respID can.ID
	vals   Values

	requests  uint64
	malformed uint64
}

// NewServer attaches an OBD responder to an ECU. respID is the physical
// response identifier (e.g. IDResponseBase).
func NewServer(e *ecu.ECU, respID can.ID, vals Values) *Server {
	s := &Server{e: e, respID: respID, vals: vals}
	e.Handle(IDRequest, s.onRequest)
	return s
}

// Requests returns the number of well-formed requests served.
func (s *Server) Requests() uint64 { return s.requests }

// Malformed returns the number of requests dropped as malformed — under
// fuzzing this counter races upward while Requests stays near zero.
func (s *Server) Malformed() uint64 { return s.malformed }

// onRequest parses one functional request. OBD single frames carry
// [count, mode, pid, ...]; a defensive parser rejects everything else —
// this server is the hardened counterexample to the cluster's defective
// display handler.
func (s *Server) onRequest(m bus.Message) {
	f := m.Frame
	if f.Remote || f.Len < 2 {
		s.malformed++
		return
	}
	count := int(f.Data[0])
	if count < 1 || count+1 > int(f.Len) {
		s.malformed++
		return
	}
	mode := f.Data[1]
	switch mode {
	case ModeCurrentData:
		if count != 2 {
			s.malformed++
			return
		}
		s.serveCurrentData(f.Data[2])
	case ModeDTCs:
		if count != 1 {
			s.malformed++
			return
		}
		s.requests++
		s.respond([]byte{2, ModeDTCs + positiveOffset, 0}) // zero stored codes
	case ModeClearDTCs:
		if count != 1 {
			s.malformed++
			return
		}
		s.requests++
		s.respond([]byte{1, ModeClearDTCs + positiveOffset})
	default:
		// Unsupported mode: a compliant ECU simply does not answer.
		s.malformed++
	}
}

func (s *Server) serveCurrentData(pid byte) {
	switch pid {
	case PIDSupported:
		var bitmap uint32
		if s.vals.Coolant != nil {
			bitmap |= 1 << (32 - PIDCoolantTemp)
		}
		if s.vals.RPM != nil {
			bitmap |= 1 << (32 - PIDEngineRPM)
		}
		if s.vals.Speed != nil {
			bitmap |= 1 << (32 - PIDSpeed)
		}
		s.requests++
		s.respond([]byte{6, ModeCurrentData + positiveOffset, PIDSupported,
			byte(bitmap >> 24), byte(bitmap >> 16), byte(bitmap >> 8), byte(bitmap)})
	case PIDEngineRPM:
		if s.vals.RPM == nil {
			s.malformed++
			return
		}
		raw := clampU16(s.vals.RPM() * 4) // J1979: rpm = raw/4
		s.requests++
		s.respond([]byte{4, ModeCurrentData + positiveOffset, PIDEngineRPM,
			byte(raw >> 8), byte(raw)})
	case PIDSpeed:
		if s.vals.Speed == nil {
			s.malformed++
			return
		}
		v := s.vals.Speed()
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		s.requests++
		s.respond([]byte{3, ModeCurrentData + positiveOffset, PIDSpeed, byte(v)})
	case PIDCoolantTemp:
		if s.vals.Coolant == nil {
			s.malformed++
			return
		}
		v := s.vals.Coolant() + 40 // J1979: degC = raw-40
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		s.requests++
		s.respond([]byte{3, ModeCurrentData + positiveOffset, PIDCoolantTemp, byte(v)})
	default:
		s.malformed++
	}
}

func (s *Server) respond(payload []byte) {
	f, err := can.New(s.respID, payload)
	if err != nil {
		return
	}
	_ = s.e.Send(f)
}

func clampU16(v float64) uint16 {
	if v < 0 {
		return 0
	}
	if v > 65535 {
		return 65535
	}
	return uint16(v)
}
