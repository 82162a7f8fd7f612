package can

// Reference builders and kernels for the wire codec.
//
// The production frame-bit, CRC and stuff-count paths fill stack arrays or
// run over byte tables and packed words (bits.go, crc.go, fd.go,
// words.go). These are the slice-building, bit-at-a-time versions, kept as
// the executable specification. They live in a test file so they do not
// ship. The differential tests (words_test.go, property_test.go) hold the
// production paths byte-identical to them, so any divergence introduced by
// a future optimisation is a failing test, not a silent protocol drift.
//
// Reference policy: never optimise these. They trade speed for being
// obviously correct transcriptions of the CAN 2.0 / ISO 11898-1 frame
// layout and CRC rules, one bit per iteration.

// headerBits returns the unstuffed header bit sequence of a standard frame:
// SOF(1) + ID(11) + RTR(1) + IDE(1) + r0(1) + DLC(4).
func headerBits(f Frame) []byte {
	bits := make([]byte, 0, 19)
	bits = append(bits, 0) // SOF: dominant
	for i := 10; i >= 0; i-- {
		bits = append(bits, byte(uint16(f.ID)>>uint(i)&1))
	}
	if f.Remote {
		bits = append(bits, 1) // RTR recessive for remote frames
	} else {
		bits = append(bits, 0)
	}
	bits = append(bits, 0, 0) // IDE dominant (standard frame), r0 reserved
	for i := 3; i >= 0; i-- {
		bits = append(bits, f.Len>>uint(i)&1)
	}
	return bits
}

// dataBits returns the payload bit sequence, MSB first per byte.
func dataBits(f Frame) []byte {
	if f.Remote {
		return nil
	}
	n := int(f.Len)
	if n > MaxDataLen {
		n = MaxDataLen
	}
	bits := make([]byte, 0, n*8)
	for _, b := range f.Data[:n] {
		for i := 7; i >= 0; i-- {
			bits = append(bits, b>>uint(i)&1)
		}
	}
	return bits
}

// fdStuffRegionBits returns the dynamically stuffed region of an FD frame —
// SOF, ID, RRS, IDE, FDF, res, BRS, ESI, DLC and data — that
// fdStuffRegionWords packs into words.
func fdStuffRegionBits(f FDFrame) []byte {
	bits := make([]byte, 0, 24+int(f.Len)*8)
	bits = append(bits, 0) // SOF
	for i := 10; i >= 0; i-- {
		bits = append(bits, byte(uint16(f.ID)>>uint(i)&1))
	}
	bits = append(bits, 0, 0, 1, 0) // RRS, IDE, FDF=1, res
	if f.BRS {
		bits = append(bits, 1)
	} else {
		bits = append(bits, 0)
	}
	bits = append(bits, 0) // ESI: error-active transmitter
	dlc, _ := FDLengthToDLC(int(f.Len))
	for i := 3; i >= 0; i-- {
		bits = append(bits, dlc>>uint(i)&1)
	}
	for _, by := range f.Data[:f.Len] {
		for i := 7; i >= 0; i-- {
			bits = append(bits, by>>uint(i)&1)
		}
	}
	return bits
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
