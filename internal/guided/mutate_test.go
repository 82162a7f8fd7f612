package guided

import (
	"math"
	"testing"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/core"
)

// within reports whether count is within six standard deviations of the
// binomial expectation n*p.
func within(count, n int, p float64) bool {
	mean := float64(n) * p
	return math.Abs(float64(count)-mean) <= 6*math.Sqrt(mean*(1-p))
}

// TestMutateOperatorDistribution draws 10^6 frame and operator words from
// the engine's stream and checks the stated probabilities: 1-3 operators
// uniformly, operator classes 3:2:1:1:1 out of 8, positions uniform over
// the payload and drawn bytes uniform over [ByteMin, ByteMax]. Every
// mutated frame keeps its identifier and length inside the configured
// ranges. Bit flips and nudges move a byte by design, so they may leave
// the byte range; the bytes the engine draws may not.
func TestMutateOperatorDistribution(t *testing.T) {
	const n = 1_000_000
	cfg := core.Config{Seed: 1, Mode: core.ModeGuided,
		IDMin: 0x100, IDMax: 0x17F, LenMin: 2, LenMax: 6, ByteMin: 3, ByteMax: 202}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	span := cfg.ByteMax - cfg.ByteMin + 1
	// Payload bytes outside the byte range, so every byte set shows.
	parents := []can.Frame{
		{ID: 0x104, Len: 4, Data: [8]byte{0, 1, 2, 255}},
		{ID: 0x17F, Len: 4, Data: [8]byte{0, 1, 2, 255}}, // flipping up leaves the ID range
	}
	var (
		counts  [4]int
		classes [8]int
		bitPos  [32]int
		bytePos [4]int
		values  = make([]int, span)
		nudges  [2]int
		idBits  [4]int
	)
	drawn := func(b byte) {
		if int(b) < cfg.ByteMin || int(b) > cfg.ByteMax {
			t.Fatalf("drawn byte %d outside [%d,%d]", b, cfg.ByteMin, cfg.ByteMax)
		}
	}
	for i := 0; i < n; i++ {
		counts[opCount(e.pcg.Uint64())]++
		parent := parents[i%2]
		w := e.pcg.Uint64()
		class := opTable[w%8]
		classes[class]++
		f := parent
		e.mutate(&f, w)
		if f.ID < cfg.IDMin || f.ID > cfg.IDMax {
			t.Fatalf("ID %#x outside [%#x,%#x]", f.ID, cfg.IDMin, cfg.IDMax)
		}
		if int(f.Len) < cfg.LenMin || int(f.Len) > cfg.LenMax {
			t.Fatalf("length %d outside [%d,%d]", f.Len, cfg.LenMin, cfg.LenMax)
		}
		var diff []int
		for j := range f.Data {
			if f.Data[j] != parent.Data[j] {
				diff = append(diff, j)
			}
		}
		switch class {
		case opFlipBit:
			if len(diff) != 1 || f.ID != parent.ID || f.Len != parent.Len {
				t.Fatalf("bit flip changed %v, ID %#x, length %d", diff, f.ID, f.Len)
			}
			x := f.Data[diff[0]] ^ parent.Data[diff[0]]
			if x&(x-1) != 0 {
				t.Fatalf("bit flip changed byte %d by %#x", diff[0], x)
			}
			bitPos[diff[0]*8+int(math.Log2(float64(x)))]++
		case opSetByte:
			if len(diff) != 1 || f.Len != parent.Len {
				t.Fatalf("byte set changed %v, length %d", diff, f.Len)
			}
			bytePos[diff[0]]++
			drawn(f.Data[diff[0]])
			values[int(f.Data[diff[0]])-cfg.ByteMin]++
		case opResize:
			for j := int(parent.Len); j < int(f.Len); j++ {
				drawn(f.Data[j])
			}
			for j := int(f.Len); j < len(f.Data); j++ {
				if f.Data[j] != 0 {
					t.Fatalf("resize to %d left byte %d = %d", f.Len, j, f.Data[j])
				}
			}
		case opNudge:
			if len(diff) != 1 {
				t.Fatalf("nudge changed %v", diff)
			}
			switch f.Data[diff[0]] - parent.Data[diff[0]] {
			case 1:
				nudges[0]++
			case 0xFF:
				nudges[1]++
			default:
				t.Fatalf("nudge moved byte %d from %d to %d", diff[0], parent.Data[diff[0]], f.Data[diff[0]])
			}
		case opFlipID:
			if x := f.ID ^ parent.ID; parent.ID == 0x104 {
				if len(diff) != 0 || x&(x-1) != 0 || x > 8 {
					t.Fatalf("ID flip turned %#x into %#x", parent.ID, f.ID)
				}
				idBits[int(math.Log2(float64(x)))]++
			}
		}
	}
	for k, c := range counts[1:] {
		if !within(c, n, 1.0/3) {
			t.Errorf("%d operators drawn %d times in %d, want ~1/3", k+1, c, n)
		}
	}
	for class, want := range map[uint8]float64{opFlipBit: 3.0 / 8, opSetByte: 2.0 / 8, opResize: 1.0 / 8, opNudge: 1.0 / 8, opFlipID: 1.0 / 8} {
		if !within(classes[class], n, want) {
			t.Errorf("operator class %d drawn %d times in %d, want %v", class, classes[class], n, want)
		}
	}
	uniform := func(name string, bins []int) {
		total := 0
		for _, c := range bins {
			total += c
		}
		for i, c := range bins {
			if !within(c, total, 1/float64(len(bins))) {
				t.Errorf("%s %d drawn %d times in %d, want uniform over %d", name, i, c, total, len(bins))
			}
		}
	}
	uniform("flipped bit", bitPos[:])
	uniform("set byte position", bytePos[:])
	uniform("set byte value", values)
	uniform("nudge direction", nudges[:])
	uniform("flipped ID bit", idBits[:])
}

// TestGenerateStaysInRanges runs 10^6 generate calls over a seeded corpus
// and checks the mutate-vs-explore split and that every frame's
// identifier and length, and every explored frame's bytes, stay inside
// the configured ranges.
func TestGenerateStaysInRanges(t *testing.T) {
	const n = 1_000_000
	cfg := core.Config{Seed: 2, Mode: core.ModeGuided,
		IDMin: 0x7F0, IDMax: 0x7FF, LenMin: 1, LenMax: 5, ByteMin: 0x40, ByteMax: 0x5F,
		Corpus: []can.Frame{
			{ID: 0x7F0, Len: 1, Data: [8]byte{0x40}},
			{ID: 0x7FF, Len: 5, Data: [8]byte{0x5F, 0x5F, 0x5F, 0x5F, 0x5F}},
		}}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		before := e.explorations
		f := e.generate()
		if f.ID < cfg.IDMin || f.ID > cfg.IDMax || int(f.Len) < cfg.LenMin || int(f.Len) > cfg.LenMax {
			t.Fatalf("frame %d: %v outside ID [%#x,%#x] or length [%d,%d]",
				i, f, cfg.IDMin, cfg.IDMax, cfg.LenMin, cfg.LenMax)
		}
		if e.explorations == before {
			continue
		}
		for _, b := range f.Data[:f.Len] {
			if int(b) < cfg.ByteMin || int(b) > cfg.ByteMax {
				t.Fatalf("explored frame %v has a byte outside [%#x,%#x]", f, cfg.ByteMin, cfg.ByteMax)
			}
		}
	}
	if !within(int(e.explorations), n, 1.0/exploreOneIn) {
		t.Errorf("explored %d of %d frames, want 1 in %d", e.explorations, n, exploreOneIn)
	}
}

// TestGuidedKeepsTargetIDs runs 10^5 guided frames without a seed corpus
// under a TargetIDs list. Each frame is echoed back as a response, so new
// (identifier, length) pairs are novel, the corpus grows and mutation runs;
// every frame, mutated or explored, must carry a listed identifier.
func TestGuidedKeepsTargetIDs(t *testing.T) {
	const n = 100_000
	ids := []can.ID{0x100, 0x215, 0x3C0}
	e, err := NewEngine(core.Config{Seed: 4, Mode: core.ModeGuided, TargetIDs: ids})
	if err != nil {
		t.Fatal(err)
	}
	listed := map[can.ID]bool{}
	for _, id := range ids {
		listed[id] = true
	}
	for i := 0; i < n; i++ {
		f, _ := e.Next()
		if !listed[f.ID] {
			t.Fatalf("frame %d: ID %v not in TargetIDs %v", i, f.ID, ids)
		}
		e.Observe(bus.Message{Frame: can.Frame{ID: f.ID, Len: f.Len}})
	}
	if e.mutations == 0 {
		t.Fatal("no frame was mutated")
	}
}
