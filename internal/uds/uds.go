// Package uds implements a practical subset of Unified Diagnostic Services
// (ISO 14229) over ISO-TP: diagnostic session control, ECU reset, security
// access (seed/key), read/write data by identifier, and tester present.
//
// The paper's related work (§II) singles out UDS as a fuzzing surface and
// stresses that ECUs have distinct operating modes — normal operation
// versus a locked/unlocked servicing state — that "have been previously
// exploited" and must all be covered by testing. This package gives the
// simulated ECUs those modes, and gives the fuzzer a stateful protocol
// target beyond raw frames.
package uds

import "fmt"

// Service identifiers.
const (
	SvcSessionControl  = 0x10
	SvcECUReset        = 0x11
	SvcReadDID         = 0x22
	SvcSecurityAccess  = 0x27
	SvcWriteDID        = 0x2E
	SvcTesterPresent   = 0x3E
	positiveOffset     = 0x40
	negativeResponseID = 0x7F
)

// Diagnostic session types (sub-functions of SvcSessionControl).
const (
	SessionDefault     = 0x01
	SessionProgramming = 0x02
	SessionExtended    = 0x03
)

// ECU reset sub-functions.
const (
	ResetHard = 0x01
	ResetSoft = 0x03
)

// Negative response codes.
const (
	NRCServiceNotSupported          = 0x11
	NRCSubFunctionNotSupported      = 0x12
	NRCIncorrectLength              = 0x13
	NRCConditionsNotCorrect         = 0x22
	NRCRequestOutOfRange            = 0x31
	NRCSecurityAccessDenied         = 0x33
	NRCInvalidKey                   = 0x35
	NRCExceededAttempts             = 0x36
	NRCServiceNotSupportedInSession = 0x7F
)

// nrcNames maps codes to ISO names for diagnostics output.
var nrcNames = map[byte]string{
	NRCServiceNotSupported:          "serviceNotSupported",
	NRCSubFunctionNotSupported:      "subFunctionNotSupported",
	NRCIncorrectLength:              "incorrectMessageLengthOrInvalidFormat",
	NRCConditionsNotCorrect:         "conditionsNotCorrect",
	NRCRequestOutOfRange:            "requestOutOfRange",
	NRCSecurityAccessDenied:         "securityAccessDenied",
	NRCInvalidKey:                   "invalidKey",
	NRCExceededAttempts:             "exceedNumberOfAttempts",
	NRCServiceNotSupportedInSession: "serviceNotSupportedInActiveSession",
}

// NRCName returns the ISO name of a negative response code.
func NRCName(code byte) string {
	if n, ok := nrcNames[code]; ok {
		return n
	}
	return fmt.Sprintf("nrc(%#02x)", code)
}

// NegativeError is returned by the client when the server answers with a
// negative response.
type NegativeError struct {
	// Service is the rejected service identifier.
	Service byte
	// Code is the negative response code.
	Code byte
}

// Error implements error.
func (e *NegativeError) Error() string {
	return fmt.Sprintf("uds: service %#02x rejected: %s", e.Service, NRCName(e.Code))
}
