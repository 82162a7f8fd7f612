package can

// Word-level wire-length kernels.
//
// The bus computes every transmitted frame's stuffed length, so that path
// avoids a bit array and a branch per bit:
//
//   - stuff-bit counting runs a precomputed 9-state DFA one *byte* at a
//     time (stuffTable), branch-free;
//   - WireBits feeds the DFA straight from the frame fields, fused with the
//     byte-table CRC-15 (crc15Table);
//   - the FD wire-time math packs the stuffed region MSB-first into uint64
//     words (bit i of the stream is bit 63-i of word i/64) and counts it
//     the same way (countStuffWords).
//
// Stuff and Unstuff, which build or read whole bit sequences, stay
// bit-serial (bits.go): they only ever see one frame of at most 98 raw
// bits, too short for word packing to pay for itself. The differential
// tests hold these kernels to Stuff and to the bit-serial references in
// reference_test.go.

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

// stuffStep advances DFA state s over the low n bits of bits, MSB first,
// and returns the next state and the number of stuff bits inserted.
func stuffStep(s uint8, bits uint32, n int) (uint8, int) {
	last, run := decodeStuffState(s)
	count := 0
	for j := n - 1; j >= 0; j-- {
		b := byte(bits >> uint(j) & 1)
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
	return encodeStuffState(last, run), count
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
			next, count := stuffStep(uint8(s), uint32(by), 8)
			t[s][by] = uint8(count)<<4 | next
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
		b := byte(words[nb>>3] >> (56 - uint(nb&7)*8))
		var c int
		s, c = stuffStep(s, uint32(b>>(8-rem)), rem)
		count += c
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
// remainder, and 19+8·dlc+15 ≡ 2 mod 8 leaves a 2-bit tail, looked up in
// stuffTail).
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
	count += int(stuffTail[e&0x0F][t&3])
	return n + 15 + count + TrailerBits
}

// stuffTail[s][b] is the number of stuff bits the DFA inserts from state s
// over the two bits of b (MSB first): WireBits' tail, one load instead of
// two data-dependent branches per bit. Rows 9..15 are unreachable and
// zero, there so the masked state index needs no bounds check.
var stuffTail = func() (t [16][4]uint8) {
	for s := 0; s < 9; s++ {
		for b := 0; b < 4; b++ {
			_, count := stuffStep(uint8(s), uint32(b), 2)
			t[s][b] = uint8(count)
		}
	}
	return t
}()

// WireBitsWithIFS is WireBits plus the mandatory 3-bit interframe space;
// it is the effective bus occupancy of one frame.
func WireBitsWithIFS(f Frame) int { return WireBits(f) + InterframeSpace }
