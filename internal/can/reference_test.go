package can

// Reference kernels for the wire codec.
//
// The production Stuff/Unstuff/countStuffBits/CRC paths run over uint64
// words (words.go); these are the original bit-at-a-time implementations,
// kept verbatim as the executable specification. They live in a test file
// so they do not ship. The differential property suite (words_test.go)
// and the FuzzUnstuffWords target hold the word kernels byte-identical —
// output *and* error — to these references, so any divergence introduced
// by a future optimisation is a failing test, not a silent protocol
// drift. The FD CRC reference, crcFDRef, stays in fd.go: it is also
// crcFD's fallback for non-standard polynomial/width combinations.
//
// Reference-kernel policy: never optimise these. They trade speed for
// being obviously correct transcriptions of the CAN 2.0 / ISO 11898-1
// stuffing and CRC rules, one bit per iteration.

// appendStuffRef is the bit-at-a-time stuffing reference: after five
// consecutive identical bits a complement bit is inserted, and the stuff
// bit itself counts toward the next run.
func appendStuffRef(dst, bits []byte) []byte {
	run := 0
	var last byte = 2 // sentinel: no previous bit
	for _, b := range bits {
		if b == last {
			run++
		} else {
			run = 1
			last = b
		}
		dst = append(dst, b)
		if run == 5 {
			stuffed := last ^ 1
			dst = append(dst, stuffed)
			last = stuffed
			run = 1
		}
	}
	return dst
}

// unstuffRef is the bit-at-a-time destuffing reference. It returns
// ErrStuffViolation where a real controller would signal an error frame:
// six consecutive equal bits, i.e. a bit in the stuff position that
// matches the run it should terminate.
func unstuffRef(bits []byte) ([]byte, error) {
	out := make([]byte, 0, len(bits))
	run := 0
	var last byte = 2
	skip := false
	for _, b := range bits {
		if skip {
			// This is a stuff bit; it must differ from the previous run.
			if b == last {
				return nil, ErrStuffViolation
			}
			last = b
			run = 1
			skip = false
			continue
		}
		if b == last {
			run++
		} else {
			run = 1
			last = b
		}
		if run == 6 {
			return nil, ErrStuffViolation
		}
		out = append(out, b)
		if run == 5 {
			skip = true
		}
	}
	return out, nil
}

// countStuffBitsRef is the bit-at-a-time stuff-count reference; a stuff
// bit counts toward the next run with inverted polarity.
func countStuffBitsRef(bits []byte) int {
	stuffed := 0
	run := 0
	var last byte = 2
	for _, b := range bits {
		if b == last {
			run++
		} else {
			run = 1
			last = b
		}
		if run == 5 {
			stuffed++
			last ^= 1
			run = 1
		}
	}
	return stuffed
}

// crc15Ref is the bit-serial CAN CRC-15 reference (Bosch CAN 2.0 §3.1.1).
func crc15Ref(bits []byte) uint16 {
	var crc uint16
	for _, b := range bits {
		crcNext := b&1 ^ byte(crc>>14&1)
		crc = (crc << 1) & 0x7FFF
		if crcNext == 1 {
			crc ^= crc15Poly
		}
	}
	return crc & 0x7FFF
}
