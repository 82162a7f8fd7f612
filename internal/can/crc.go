package can

import "errors"

// ErrStuffViolation reports six consecutive equal bits inside the stuffed
// region of a frame — on a physical bus this triggers an error frame.
var ErrStuffViolation = errors.New("can: bit stuffing violation")

// ErrCRC reports a CRC-15 mismatch when decoding a bit sequence.
var ErrCRC = errors.New("can: CRC mismatch")

// crc15Poly is the CAN CRC-15 generator polynomial
// x^15 + x^14 + x^10 + x^8 + x^7 + x^4 + x^3 + 1.
const crc15Poly = 0x4599

// CRC15 computes the CAN CRC-15 over a bit sequence (one bit per byte,
// values 0 or 1), as specified in Bosch CAN 2.0 §3.1.1. Eight input bits
// at a time go through crc15Table; the trailing partial byte steps
// serially. crc15Ref in reference_test.go is the bit-serial
// specification this is tested against.
func CRC15(bits []byte) uint16 {
	var crc uint16
	i := 0
	for ; i+8 <= len(bits); i += 8 {
		v := (bits[i]&1)<<7 | (bits[i+1]&1)<<6 | (bits[i+2]&1)<<5 | (bits[i+3]&1)<<4 |
			(bits[i+4]&1)<<3 | (bits[i+5]&1)<<2 | (bits[i+6]&1)<<1 | bits[i+7]&1
		crc = ((crc << 8) ^ crc15Table[byte(crc>>7)^v]) & 0x7FFF
	}
	for ; i < len(bits); i++ {
		next := uint16(bits[i]&1) ^ (crc >> 14 & 1)
		crc = ((crc << 1) & 0x7FFF) ^ next*crc15Poly
	}
	return crc & 0x7FFF
}
