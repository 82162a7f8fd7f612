package can

// Bit-level view of a classic CAN frame.
//
// The simulated bus needs the exact on-wire length of every frame to model
// transmission latency at the configured bitrate (the paper's vehicle runs
// at 500 kb/s). That length depends on bit stuffing: after five consecutive
// equal bits in the stuffed region a complement bit is inserted, so the wire
// length varies with frame content. This file builds the full bit sequence
// of a standard frame — SOF, arbitration, control, data, CRC — applies
// stuffing, and appends the fixed-form trailer (CRC delimiter, ACK slot and
// delimiter, EOF, interframe space). Bit sequences hold one bit per byte,
// values 0 or 1.

const (
	// Fixed-form trailer bits that are never stuffed:
	// CRC delimiter (1) + ACK slot (1) + ACK delimiter (1) + EOF (7).
	trailerBits = 10
	// InterframeSpace is the mandatory idle period between frames, in bits.
	InterframeSpace = 3
)

// RawBits returns the unstuffed bit sequence covered by stuffing:
// header + data + CRC-15.
func RawBits(f Frame) []byte {
	var bits [maxRawFrameBits]byte
	n := rawFrameBits(&bits, f)
	return append([]byte(nil), bits[:n]...)
}

// maxRawFrameBits bounds the unstuffed raw sequence of a standard frame:
// header(19) + data(<=64) + crc(15).
const maxRawFrameBits = 98

// rawFrameBits fills bits with the unstuffed raw sequence of f — header
// (SOF, ID, RTR, IDE, r0, DLC), data MSB first per byte, CRC-15 — and
// returns the bit count. The caller provides a fixed stack array, so
// AppendEncodeBits allocates nothing.
func rawFrameBits(bits *[maxRawFrameBits]byte, f Frame) int {
	n := 0
	bits[n] = 0 // SOF
	n++
	for i := 10; i >= 0; i-- {
		bits[n] = byte(uint16(f.ID) >> uint(i) & 1)
		n++
	}
	if f.Remote {
		bits[n] = 1
	} else {
		bits[n] = 0
	}
	n++
	bits[n] = 0 // IDE
	n++
	bits[n] = 0 // r0
	n++
	for i := 3; i >= 0; i-- {
		bits[n] = f.Len >> uint(i) & 1
		n++
	}
	if !f.Remote {
		dlc := int(f.Len)
		if dlc > MaxDataLen {
			dlc = MaxDataLen
		}
		for _, by := range f.Data[:dlc] {
			for i := 7; i >= 0; i-- {
				bits[n] = by >> uint(i) & 1
				n++
			}
		}
	}
	crc := CRC15(bits[:n])
	for i := 14; i >= 0; i-- {
		bits[n] = byte(crc >> uint(i) & 1)
		n++
	}
	return n
}

// Stuff applies CAN bit stuffing to a bit sequence: after five
// consecutive identical bits, a bit of opposite polarity is inserted. The
// stuff bit itself counts toward the next run.
func Stuff(src []byte) []byte {
	return AppendStuff(make([]byte, 0, len(src)+len(src)/5), src)
}

// AppendStuff appends the stuffed form of bits to dst and returns the
// extended slice. With a pre-sized dst it performs no allocation.
func AppendStuff(dst, bits []byte) []byte {
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

// Unstuff removes stuffing from a bit sequence produced by Stuff. It
// returns ErrStuffViolation where a real controller would signal an error
// frame: six consecutive equal bits, i.e. a bit in the stuff position that
// matches the run it should terminate. A run never passes five: its fifth
// bit makes the next one a stuff bit.
func Unstuff(bits []byte) ([]byte, error) {
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
		out = append(out, b)
		if run == 5 {
			skip = true
		}
	}
	return out, nil
}

// crc15Table drives the byte-at-a-time CRC-15 update in the codec paths:
// crc15Table[u] is the register state after clocking the 8 bits of u
// through a zeroed CRC-15 register, MSB first.
var crc15Table = func() (t [256]uint16) {
	for u := range t {
		crc := uint16(u) << 7
		for b := 0; b < 8; b++ {
			next := crc >> 14 & 1
			crc = ((crc << 1) & 0x7FFF) ^ next*crc15Poly
		}
		t[u] = crc
	}
	return t
}()
