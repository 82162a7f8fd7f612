package can

// CAN FD (flexible data-rate) wire timing — the paper lists "Apply the
// techniques to the Flexible Data-rate (FD) version of CAN" as future work
// (§VII); this file provides the frame model and the wire-time math behind
// the FD bulk-transfer ablation. The bus carries no FD frames.
//
// Modelled per ISO 11898-1:2015 at the granularity the ablation needs:
//
//   - payloads up to 64 bytes through the FD DLC code table;
//   - the arbitration phase (SOF..BRS) runs at the nominal bitrate, the
//     data phase (ESI..CRC delimiter) at the faster data bitrate when BRS
//     is set;
//   - a 17-bit CRC field for payloads up to 16 bytes, 21 bits above;
//   - dynamic stuffing up to the CRC field, fixed stuff bits inside it
//     (one per four CRC bits, plus the leading one), and the stuff-count
//     field.
//
// The transmitter is always error-active (ESI clear), and there are no
// remote FD frames.

import (
	"errors"
	"fmt"
	"time"
)

// MaxFDDataLen is the largest CAN FD payload.
const MaxFDDataLen = 64

// ErrFDDataLen reports a payload length not representable by an FD DLC
// code.
var ErrFDDataLen = errors.New("can: FD payload length not representable")

// fdLengths are the payload sizes representable by FD DLC codes 0..15.
var fdLengths = [16]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 20, 24, 32, 48, 64}

// FDLengthToDLC returns the DLC code for a payload length. Only the exact
// representable sizes are accepted: a real controller pads, but a fuzzer
// must know what it is sending.
func FDLengthToDLC(n int) (uint8, error) {
	for code, l := range fdLengths {
		if l == n {
			return uint8(code), nil
		}
	}
	return 0, fmt.Errorf("%w: %d bytes", ErrFDDataLen, n)
}

// FDFrame is a CAN FD data frame with a standard 11-bit identifier.
type FDFrame struct {
	// ID is the 11-bit arbitration identifier.
	ID ID
	// Len is the payload length in bytes; it must be one of the FD DLC
	// sizes (0-8, 12, 16, 20, 24, 32, 48, 64).
	Len uint8
	// Data holds the payload; only the first Len bytes are meaningful.
	Data [MaxFDDataLen]byte
	// BRS requests the bit-rate switch: the data phase runs at the
	// (faster) data bitrate.
	BRS bool
}

// NewFD builds an FD frame, validating the identifier and payload size.
func NewFD(id ID, data []byte, brs bool) (FDFrame, error) {
	var f FDFrame
	if !id.Valid() {
		return f, fmt.Errorf("%w: 0x%X", ErrIDRange, uint16(id))
	}
	if _, err := FDLengthToDLC(len(data)); err != nil {
		return f, err
	}
	f.ID = id
	f.Len = uint8(len(data))
	f.BRS = brs
	copy(f.Data[:], data)
	return f, nil
}

// MustNewFD is NewFD panicking on error, for static frames.
func MustNewFD(id ID, data []byte, brs bool) FDFrame {
	f, err := NewFD(id, data, brs)
	if err != nil {
		panic(err)
	}
	return f
}

// fdArbitrationBits counts the FD header bits transmitted at the nominal
// bitrate: SOF(1) + ID(11) + RRS(1) + IDE(1) + FDF(1) + res(1) + BRS(1).
const fdArbitrationBits = 17

// fdPhaseBits returns the unstuffed bit counts of the two FD phases for a
// frame: arbitration-rate bits and data-rate bits (ESI + DLC + data + stuff
// count + CRC + CRC delimiter). When BRS is clear the "data phase" bits
// still exist but run at the nominal rate.
func fdPhaseBits(f FDFrame) (arb, data int) {
	crcBits := 17
	if f.Len > 16 {
		crcBits = 21
	}
	// ESI(1) + DLC(4) + payload + stuff count(4 incl. parity) + fixed
	// stuff bits (1 + crcBits/4) + CRC + CRC delimiter(1).
	fixedStuff := 1 + crcBits/4
	data = 1 + 4 + int(f.Len)*8 + 4 + fixedStuff + crcBits + 1
	return fdArbitrationBits, data
}

// fdStuffRegionMax bounds the dynamically stuffed region of an FD frame:
// SOF(1) + ID(11) + RRS/IDE/FDF/res(4) + BRS(1) + ESI(1) + DLC(4) = 22
// header bits (rounded to 24 for slack) plus the maximum payload.
const fdStuffRegionMax = 24 + MaxFDDataLen*8

// fdStuffRegionWords packs the dynamically stuffed region of f — header
// flags + DLC + data — MSB-first into words and returns the bit count
// (22..534). fdStuffRegionBits in reference_test.go is its bit-slice
// reference.
func fdStuffRegionWords(w *[fdStuffRegionMax/64 + 1]uint64, f FDFrame) int {
	for i := range w {
		w[i] = 0
	}
	var brs uint64
	if f.BRS {
		brs = 1
	}
	dlc, _ := FDLengthToDLC(int(f.Len))
	// SOF(0) ID(11) RRS(0) IDE(0) FDF(1) res(0) BRS ESI(0) DLC(4) = 22 bits.
	v := uint64(f.ID)<<10 | 1<<7 | brs<<5 | uint64(dlc)
	w[0] = v << 42
	n := 22
	for _, by := range f.Data[:f.Len] {
		idx := n >> 6
		off := uint(n & 63)
		if off <= 56 {
			w[idx] |= uint64(by) << (56 - off)
		} else {
			w[idx] |= uint64(by) >> (off - 56)
			w[idx+1] |= uint64(by) << (120 - off)
		}
		n += 8
	}
	return n
}

// fdDynamicStuffEstimate counts dynamic stuff bits over the header and
// payload region (FD dynamic stuffing stops at the stuff-count field),
// word-packed and DFA-counted like the classic WireBits path.
func fdDynamicStuffEstimate(f FDFrame) int {
	var w [fdStuffRegionMax/64 + 1]uint64
	n := fdStuffRegionWords(&w, f)
	var state uint8
	return countStuffWords(&state, w[:], n)
}

// FDWireTime returns the on-wire duration of an FD frame given the nominal
// (arbitration) and data-phase bitrates, including the ACK/EOF trailer and
// interframe space (always at the nominal rate).
func FDWireTime(f FDFrame, nominalBps, dataBps int) time.Duration {
	if dataBps <= 0 || !f.BRS {
		dataBps = nominalBps
	}
	arb, data := fdPhaseBits(f)
	stuff := fdDynamicStuffEstimate(f)
	// Dynamic stuff bits straddle both phases; attribute them to the data
	// phase, which dominates (payload ≫ header).
	trailer := 1 + 1 + 7 + InterframeSpace // ACK slot + delim + EOF + IFS
	arbTime := time.Duration(arb+trailer) * time.Second / time.Duration(nominalBps)
	dataTime := time.Duration(data+stuff) * time.Second / time.Duration(dataBps)
	return arbTime + dataTime
}
