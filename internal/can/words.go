package can

// Word-level wire codec kernels.
//
// The bit-slice codec walked one bit per iteration with a data-dependent
// branch per bit; on fuzz traffic those branches mispredict constantly and
// countStuffBits alone was ~40% of a campaign's CPU. This file reworks the
// stuffing and CRC kernels over uint64 words:
//
//   - frames pack MSB-first into words (bit i of the stream is bit 63-i of
//     word i/64), built directly from the frame fields without a bit array;
//   - stuff-bit counting runs a precomputed 9-state DFA one *byte* at a
//     time (stuffTable), branch-free;
//   - stuffing/destuffing jump whole runs at once via XOR + LeadingZeros64
//     instead of stepping bits;
//   - CRCs run byte-at-a-time off tables (crc15Table, crc17Table,
//     crc21Table).
//
// The original bit-at-a-time implementations survive verbatim in
// reference_test.go (crcFDRef, also a live fallback, in fd.go); the
// differential suite in words_test.go pins every kernel here
// byte-identical — output and error — to its reference.
//
// All bit-slice inputs follow the package contract: one bit per byte,
// values 0 or 1.

import "math/bits"

// stuffChunkWords sizes the stack window the slice-based kernels pack
// into: 16 words = 1024 bits per chunk, carrying DFA state across chunk
// boundaries for longer inputs.
const stuffChunkWords = 16

// The stuffing DFA has nine states: the start state (no previous bit) and
// (value, run) for value in {0,1} and run in 1..4 — a run of five resets
// to one with inverted value, emitting a stuff bit. encode/decode map a
// state to/from its table index.

func encodeStuffState(last byte, run int) uint8 {
	if last > 1 {
		return 0
	}
	return 1 + last<<2 + uint8(run-1)
}

func decodeStuffState(s uint8) (last byte, run int) {
	if s == 0 {
		return 2, 0
	}
	s--
	return s >> 2, int(s&3) + 1
}

// stuffTable[s][b] advances stuffing-DFA state s over the eight bits of b
// (MSB first) and packs the result as stuffCount<<4 | nextState. At most
// two stuff bits can fall inside one byte, so the count fits the high
// nibble with room to spare. The table is sized 16 rows (states 9..15
// unreachable and zero) so indexing with the unpacked low nibble needs no
// bounds check on the hot path.
var stuffTable = func() (t [16][256]uint8) {
	for s := 0; s < 9; s++ {
		for by := 0; by < 256; by++ {
			last, run := decodeStuffState(uint8(s))
			count := 0
			for i := 7; i >= 0; i-- {
				b := byte(by >> uint(i) & 1)
				if b == last {
					run++
				} else {
					run = 1
					last = b
				}
				if run == 5 {
					count++
					last ^= 1
					run = 1
				}
			}
			t[s][by] = uint8(count)<<4 | encodeStuffState(last, run)
		}
	}
	return t
}()

// countStuffWords counts the stuff bits Stuff would insert into the first
// n bits of the packed words, advancing *state (a stuffTable index) so
// callers can carry the DFA across chunks. Full bytes go through the
// table; the trailing partial byte steps serially.
func countStuffWords(state *uint8, words []uint64, n int) int {
	count := 0
	s := *state
	nb := n >> 3
	for i := 0; i < nb; i++ {
		b := byte(words[i>>3] >> (56 - uint(i&7)*8))
		e := stuffTable[s&0x0F][b]
		count += int(e >> 4)
		s = e & 0x0F
	}
	if rem := n & 7; rem != 0 {
		last, run := decodeStuffState(s)
		w := words[nb>>3] >> (56 - uint(nb&7)*8)
		for j := 7; j > 7-rem; j-- {
			b := byte(w >> uint(j) & 1)
			if b == last {
				run++
			} else {
				run = 1
				last = b
			}
			if run == 5 {
				count++
				last ^= 1
				run = 1
			}
		}
		s = encodeStuffState(last, run)
	}
	*state = s
	return count
}

// WireBits returns the total number of bits the frame occupies on the
// wire, including stuffing and the fixed-form trailer but excluding
// interframe space. This drives the bus transmission-latency model.
//
// It is the hottest function in the simulator (once per transmitted
// frame), so the CRC-15 and the stuffing DFA run fused in a single pass
// over the frame bytes. The two table walks are independent dependency
// chains, so the CPU overlaps them; packing the raw sequence into words
// first and re-reading it would serialize them back-to-back. The stream
// bytes the DFA consumes are the 19-bit header followed by the data,
// so each data byte contributes its top five bits to one stream byte
// and carries its low three into the next (the header leaves a 3-bit
// remainder, and 19+8·dlc+15 ≡ 2 mod 8 leaves a 2-bit serial tail).
func WireBits(f Frame) int {
	var rtr uint32
	if f.Remote {
		rtr = 1
	}
	// SOF(0) ID(11) RTR IDE(0) r0(0) DLC(4) = 19 bits.
	v := uint32(f.ID)<<7 | rtr<<6 | uint32(f.Len&0x0F)
	crc := crc15Table[byte(v>>16)]
	crc = ((crc << 8) ^ crc15Table[byte(crc>>7)^byte(v>>8)]) & 0x7FFF
	crc = ((crc << 8) ^ crc15Table[byte(crc>>7)^byte(v)]) & 0x7FFF

	e := stuffTable[0][byte(v>>11)]
	count := int(e >> 4)
	e = stuffTable[e&0x0F][byte(v>>3)]
	count += int(e >> 4)
	s := e & 0x0F

	c := byte(v) & 7 // header bits carried into the next stream byte
	n := 19
	if !f.Remote {
		dlc := int(f.Len)
		if dlc > MaxDataLen {
			dlc = MaxDataLen
		}
		for _, by := range f.Data[:dlc] {
			e = stuffTable[s][c<<5|by>>3]
			count += int(e >> 4)
			s = e & 0x0F
			c = by & 7
			crc = ((crc << 8) ^ crc15Table[byte(crc>>7)^by]) & 0x7FFF
		}
		n += dlc * 8
	}
	// Tail: 3 carried bits + 15 CRC bits = two stream bytes + 2 bits.
	t := uint32(c)<<15 | uint32(crc)
	e = stuffTable[s][byte(t>>10)]
	count += int(e >> 4)
	e = stuffTable[e&0x0F][byte(t>>2)]
	count += int(e >> 4)
	last, run := decodeStuffState(e & 0x0F)
	for j := 1; j >= 0; j-- {
		b := byte(t >> uint(j) & 1)
		if b == last {
			run++
		} else {
			run = 1
			last = b
		}
		if run == 5 {
			count++
			last ^= 1
			run = 1
		}
	}
	return n + 15 + count + trailerBits
}

// WireBitsWithIFS is WireBits plus the mandatory 3-bit interframe space;
// it is the effective bus occupancy of one frame.
func WireBitsWithIFS(f Frame) int { return WireBits(f) + InterframeSpace }

// packBitChunk packs a bit slice (≤ 1024 bits) MSB-first into w and
// returns the bit count; unfilled trailing bits are zero.
func packBitChunk(w *[stuffChunkWords]uint64, src []byte) int {
	for i := 0; i < (len(src)+63)>>6; i++ {
		w[i] = 0
	}
	i := 0
	for ; i+8 <= len(src); i += 8 {
		v := uint64(src[i]&1)<<7 | uint64(src[i+1]&1)<<6 |
			uint64(src[i+2]&1)<<5 | uint64(src[i+3]&1)<<4 |
			uint64(src[i+4]&1)<<3 | uint64(src[i+5]&1)<<2 |
			uint64(src[i+6]&1)<<1 | uint64(src[i+7]&1)
		w[i>>6] |= v << (56 - uint(i&63))
	}
	for ; i < len(src); i++ {
		w[i>>6] |= uint64(src[i]&1) << (63 - uint(i&63))
	}
	return len(src)
}

// bitAt reads bit i of the packed window.
func bitAt(w *[stuffChunkWords]uint64, i int) byte {
	return byte(w[i>>6] >> (63 - uint(i&63)) & 1)
}

// runLenWords returns the length of the maximal run of bit value b
// starting at position i within the first n packed bits: XOR against the
// broadcast value turns matching bits into zeros, and LeadingZeros64
// measures the run a word at a time.
func runLenWords(w *[stuffChunkWords]uint64, i, n int, b byte) int {
	var bcast uint64
	if b != 0 {
		bcast = ^uint64(0)
	}
	L := 0
	for i+L < n {
		idx := (i + L) >> 6
		off := uint((i + L) & 63)
		y := (w[idx] ^ bcast) << off
		z := bits.LeadingZeros64(y)
		avail := 64 - int(off)
		if z >= avail {
			L += avail
			continue
		}
		L += z
		break
	}
	if i+L > n {
		L = n - i
	}
	return L
}

// appendRun appends n copies of bit b.
func appendRun(dst []byte, b byte, n int) []byte {
	for j := 0; j < n; j++ {
		dst = append(dst, b)
	}
	return dst
}

// Stuff applies CAN bit stuffing to a bit sequence: after five
// consecutive identical bits, a bit of opposite polarity is inserted. The
// stuff bit itself counts toward the next run.
func Stuff(src []byte) []byte {
	return AppendStuff(make([]byte, 0, len(src)+len(src)/5), src)
}

// AppendStuff appends the stuffed form of src to dst and returns the
// extended slice. With a pre-sized dst it performs no allocation; Stuff
// is AppendStuff into a fresh slice.
//
// The kernel packs the input into uint64 words and jumps whole runs: a
// run of L equal bits entered with c prior equal bits emits its first
// stuff bit after 5-c bits and one more every 5 thereafter, and the
// post-run DFA state is derived in O(1) instead of stepping each bit.
func AppendStuff(dst, src []byte) []byte {
	var w [stuffChunkWords]uint64
	var last byte = 2
	run := 0
	for base := 0; base < len(src); base += stuffChunkWords * 64 {
		end := base + stuffChunkWords*64
		if end > len(src) {
			end = len(src)
		}
		n := packBitChunk(&w, src[base:end])
		for i := 0; i < n; {
			b := bitAt(&w, i)
			L := runLenWords(&w, i, n, b)
			c := 0
			if b == last {
				c = run
			}
			if c+L < 5 {
				dst = appendRun(dst, b, L)
				last = b
				run = c + L
			} else {
				// First stuff after 5-c bits, then one per further 5.
				k := 5 - c
				dst = appendRun(dst, b, k)
				dst = append(dst, b^1)
				rem := L - k
				for rem >= 5 {
					dst = appendRun(dst, b, 5)
					dst = append(dst, b^1)
					rem -= 5
				}
				if rem > 0 {
					dst = appendRun(dst, b, rem)
					last = b
					run = rem
				} else {
					// The run ended exactly on a stuff bit, which counts
					// toward the next run with inverted polarity.
					last = b ^ 1
					run = 1
				}
			}
			i += L
		}
	}
	return dst
}

// Unstuff removes stuffing from a bit sequence produced by Stuff. It
// returns an error if a stuffing violation is found (six consecutive
// equal bits), which on a real bus signals an error frame.
//
// Like AppendStuff it jumps runs over packed words: a run of L equal bits
// entered with c prior equal bits is a violation iff c+L >= 6, expects a
// stuff bit right after iff c+L == 5, and is plain payload otherwise.
func Unstuff(src []byte) ([]byte, error) {
	out := make([]byte, 0, len(src))
	var w [stuffChunkWords]uint64
	var last byte = 2
	run := 0
	skip := false
	for base := 0; base < len(src); base += stuffChunkWords * 64 {
		end := base + stuffChunkWords*64
		if end > len(src) {
			end = len(src)
		}
		n := packBitChunk(&w, src[base:end])
		i := 0
		if skip {
			// The stuff bit landed on a chunk boundary.
			b := bitAt(&w, 0)
			if b == last {
				return nil, ErrStuffViolation
			}
			last = b
			run = 1
			skip = false
			i = 1
		}
		for i < n {
			b := bitAt(&w, i)
			L := runLenWords(&w, i, n, b)
			c := 0
			if b == last {
				c = run
			}
			if c+L >= 6 {
				return nil, ErrStuffViolation
			}
			out = appendRun(out, b, L)
			i += L
			if c+L == 5 {
				if i < n {
					// The next bit is the stuff bit; it differs from b by
					// run maximality, matching the reference's check.
					last = bitAt(&w, i)
					run = 1
					i++
				} else {
					last = b
					skip = true
				}
			} else {
				last = b
				run = c + L
			}
		}
	}
	return out, nil
}

// countStuffBits returns how many stuff bits Stuff would insert into src;
// a stuff bit counts toward the next run with inverted polarity.
func countStuffBits(src []byte) int {
	count := 0
	var state uint8
	var w [stuffChunkWords]uint64
	for base := 0; base < len(src); base += stuffChunkWords * 64 {
		end := base + stuffChunkWords*64
		if end > len(src) {
			end = len(src)
		}
		n := packBitChunk(&w, src[base:end])
		count += countStuffWords(&state, w[:], n)
	}
	return count
}
