package can

// Differential battery for the word-level codec kernels (words.go): every
// kernel is pinned byte-identical — output and error — to its retained
// bit-at-a-time reference (reference_test.go; crcFDRef in fd.go) over a
// seeded sweep of random classic and FD frames, adversarial equal-bit
// runs, maximum-DLC and worst-case-stuffing payloads, and chunk-boundary
// lengths around the 1024-bit packing window.

import (
	"errors"
	"math/rand"
	"testing"
)

// stuffRef is appendStuffRef into a fresh slice, mirroring Stuff.
func stuffRef(src []byte) []byte {
	return appendStuffRef(make([]byte, 0, len(src)+len(src)/5), src)
}

// adversarialBits builds a bit string dominated by runs of 1..8 equal
// bits — the stuffing-heavy shapes where the run-jump kernels earn their
// keep and where off-by-one carry bugs would hide.
func adversarialBits(rng *rand.Rand, n int) []byte {
	out := make([]byte, 0, n)
	b := byte(rng.Intn(2))
	for len(out) < n {
		run := 1 + rng.Intn(8)
		if run > n-len(out) {
			run = n - len(out)
		}
		for i := 0; i < run; i++ {
			out = append(out, b)
		}
		if rng.Intn(6) > 0 {
			b ^= 1
		}
	}
	return out
}

// checkStuffKernels asserts all word stuffing kernels match their
// references on one input.
func checkStuffKernels(t *testing.T, label string, src []byte) {
	t.Helper()
	want := stuffRef(src)
	if got := Stuff(src); !bitsEqual(got, want) {
		t.Fatalf("%s: Stuff diverged from reference\n got %v\nwant %v", label, got, want)
	}
	prefix := []byte{1, 0, 1}
	if got := AppendStuff(prefix[:3:3], src); !bitsEqual(got[:3], prefix) || !bitsEqual(got[3:], want) {
		t.Fatalf("%s: AppendStuff with prefix diverged from reference", label)
	}
	if got, wantN := countStuffBits(src), len(want)-len(src); got != wantN {
		t.Fatalf("%s: countStuffBits = %d, want %d", label, got, wantN)
	}
	if got := countStuffBitsRef(src); got != len(want)-len(src) {
		t.Fatalf("%s: reference kernels disagree with each other", label)
	}
	checkUnstuffAgainstRef(t, label+" (stuffed)", want)
	back, err := Unstuff(want)
	if err != nil {
		t.Fatalf("%s: Unstuff(Stuff): %v", label, err)
	}
	if !bitsEqual(back, src) {
		t.Fatalf("%s: Unstuff(Stuff) did not round-trip", label)
	}
}

// checkUnstuffAgainstRef asserts the word Unstuff and unstuffRef agree on
// output and error for one (possibly invalid) input.
func checkUnstuffAgainstRef(t *testing.T, label string, src []byte) {
	t.Helper()
	got, gotErr := Unstuff(src)
	want, wantErr := unstuffRef(src)
	if !errors.Is(gotErr, wantErr) || (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: Unstuff error = %v, reference error = %v", label, gotErr, wantErr)
	}
	if gotErr == nil && !bitsEqual(got, want) {
		t.Fatalf("%s: Unstuff output diverged from reference\n got %v\nwant %v", label, got, want)
	}
}

// TestWordStuffDifferentialProperty sweeps the stuffing kernels: random
// classic frame encodings, random FD stuff regions, adversarial equal-bit
// runs, and hand-picked worst cases, comparing word kernels to the
// bit-at-a-time references bit for bit.
func TestWordStuffDifferentialProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 6000; i++ {
		f := randomWireFrame(rng)
		checkStuffKernels(t, f.String(), RawBits(f))
	}
	for i := 0; i < 6000; i++ {
		f := randomFDWireFrame(rng)
		checkStuffKernels(t, f.String(), fdStuffRegionReference(f))
	}
	for i := 0; i < 2000; i++ {
		checkStuffKernels(t, "adversarial", adversarialBits(rng, rng.Intn(600)))
	}
	// Chunk-boundary lengths around the 1024-bit packing window.
	for _, n := range []int{0, 1, 5, 1019, 1023, 1024, 1025, 1029, 2048, 2055} {
		checkStuffKernels(t, "boundary", adversarialBits(rng, n))
		run := make([]byte, n)
		checkStuffKernels(t, "all-zero run", run)
		for j := range run {
			run[j] = 1
		}
		checkStuffKernels(t, "all-one run", run)
	}
	// Worst-case stuffing: alternating blocks of four equal bits after an
	// initial five — every stuff bit lands flush against the next run.
	worst := []byte{0, 0, 0, 0, 0}
	for len(worst) < 512 {
		b := worst[len(worst)-1] ^ 1
		worst = append(worst, b, b, b, b)
	}
	checkStuffKernels(t, "worst-case stuffing", worst)
	// Max-DLC frames with pathological payloads.
	for _, fill := range []byte{0x00, 0xFF, 0xAA, 0x55, 0x1F, 0xF8} {
		var data [8]byte
		for i := range data {
			data[i] = fill
		}
		checkStuffKernels(t, "max-DLC classic", RawBits(MustNew(0x7FF, data[:])))
		fdData := make([]byte, MaxFDDataLen)
		for i := range fdData {
			fdData[i] = fill
		}
		fd := MustNewFD(0x7FF, fdData, true)
		checkStuffKernels(t, "max-DLC FD", fdStuffRegionReference(fd))
	}
}

// TestWordUnstuffViolationDifferential feeds inputs that are *not* valid
// stuffed streams — raw random bits, corrupted stuffed streams, and long
// equal runs — and requires the word Unstuff to agree with the reference
// on both the error and, when accepted, the output.
func TestWordUnstuffViolationDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 4000; i++ {
		raw := make([]byte, rng.Intn(200))
		for j := range raw {
			raw[j] = byte(rng.Intn(2))
		}
		checkUnstuffAgainstRef(t, "random", raw)

		adv := adversarialBits(rng, rng.Intn(200))
		checkUnstuffAgainstRef(t, "adversarial", adv)

		// Corrupt a valid stuffed stream with a single bit flip.
		stuffed := stuffRef(adv)
		if len(stuffed) > 0 {
			stuffed[rng.Intn(len(stuffed))] ^= 1
			checkUnstuffAgainstRef(t, "flipped", stuffed)
		}
	}
	// Six equal bits straddling every offset of the packing window.
	for off := 1019; off <= 1025; off++ {
		src := adversarialBits(rand.New(rand.NewSource(int64(off))), off)
		src = append(src, 1, 1, 1, 1, 1, 1)
		checkUnstuffAgainstRef(t, "boundary violation", src)
	}
}

// TestWordCRCDifferentialProperty pins the table-driven CRC kernels to
// the bit-serial references: CRC15 over random and run-heavy bit strings
// of every alignment, crcFD for both FD widths plus the non-standard
// fallback combination, and the frame-level FDCRC/WireBits compositions
// over ≥10k random frames.
func TestWordCRCDifferentialProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for n := 0; n <= 256; n++ {
		raw := make([]byte, n)
		for j := range raw {
			raw[j] = byte(rng.Intn(2))
		}
		if got, want := CRC15(raw), crc15Ref(raw); got != want {
			t.Fatalf("len %d: CRC15 = %#x, reference = %#x", n, got, want)
		}
		if got, want := crcFD(raw, crc17Poly, 17), crcFDRef(raw, crc17Poly, 17); got != want {
			t.Fatalf("len %d: crcFD/17 = %#x, reference = %#x", n, got, want)
		}
		if got, want := crcFD(raw, crc21Poly, 21), crcFDRef(raw, crc21Poly, 21); got != want {
			t.Fatalf("len %d: crcFD/21 = %#x, reference = %#x", n, got, want)
		}
		// Non-standard width must route to the bit-serial fallback.
		if got, want := crcFD(raw, 0x4599, 15), crcFDRef(raw, 0x4599, 15); got != want {
			t.Fatalf("len %d: crcFD/15 fallback = %#x, reference = %#x", n, got, want)
		}
	}
	for i := 0; i < 6000; i++ {
		f := randomWireFrame(rng)
		raw := append(headerBits(f), dataBits(f)...)
		if got, want := FrameCRC(f), crc15Ref(raw); got != want {
			t.Fatalf("frame %v: FrameCRC = %#x, reference = %#x", f, got, want)
		}
		wantWire := len(stuffRef(RawBits(f))) + trailerBits
		if got := WireBits(f); got != wantWire {
			t.Fatalf("frame %v: WireBits = %d, reference = %d", f, got, wantWire)
		}
	}
	for i := 0; i < 6000; i++ {
		f := randomFDWireFrame(rng)
		region := fdStuffRegionReference(f)
		wantStuff := len(stuffRef(region)) - len(region)
		if got := fdDynamicStuffEstimate(f); got != wantStuff {
			t.Fatalf("frame %v: fdDynamicStuffEstimate = %d, reference = %d", f, got, wantStuff)
		}
		crcRef := make([]byte, 0, 16+int(f.Len)*8)
		for b := 10; b >= 0; b-- {
			crcRef = append(crcRef, byte(uint16(f.ID)>>uint(b)&1))
		}
		dlc, _ := FDLengthToDLC(int(f.Len))
		for b := 3; b >= 0; b-- {
			crcRef = append(crcRef, dlc>>uint(b)&1)
		}
		for _, by := range f.Data[:f.Len] {
			for b := 7; b >= 0; b-- {
				crcRef = append(crcRef, by>>uint(b)&1)
			}
		}
		wantWidth, wantPoly := 17, uint32(crc17Poly)
		if f.Len > 16 {
			wantWidth, wantPoly = 21, crc21Poly
		}
		wantCRC := crcFDRef(crcRef, wantPoly, wantWidth)
		if crc, width := FDCRC(f); crc != wantCRC || width != wantWidth {
			t.Fatalf("frame %v: FDCRC = (%#x, %d), reference = (%#x, %d)",
				f, crc, width, wantCRC, wantWidth)
		}
	}
}

// FuzzUnstuffWords holds the word-level Unstuff byte-identical — output
// and error — to the bit-at-a-time reference kernel on arbitrary input.
func FuzzUnstuffWords(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 1})
	f.Add([]byte{1, 1, 1, 1, 1, 1})
	f.Add(stuffRef(RawBits(MustNew(0x215, []byte{0x20, 0x5F, 1, 0, 0, 1, 0x20}))))
	f.Fuzz(func(t *testing.T, raw []byte) {
		src := make([]byte, len(raw))
		for i, b := range raw {
			src[i] = b & 1
		}
		got, gotErr := Unstuff(src)
		want, wantErr := unstuffRef(src)
		if (gotErr == nil) != (wantErr == nil) || !errors.Is(gotErr, wantErr) {
			t.Fatalf("Unstuff error = %v, reference = %v", gotErr, wantErr)
		}
		if gotErr == nil && !bitsEqual(got, want) {
			t.Fatalf("Unstuff output diverged from reference")
		}
	})
}
