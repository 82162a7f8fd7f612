package core

import (
	"fmt"
	"testing"

	"repro/internal/can"
)

// rngModes are generator configurations covering every way a generator
// draws: random over the full space (the word-fill payload path), a
// narrow byte range, targeted identifiers, corpus mutation and sweep.
func rngModes() map[string]Config {
	corpus := []can.Frame{
		can.MustNew(0x215, []byte{0x10, 0x5F, 0x01}),
		can.MustNew(0x43A, []byte{0xAA, 0x55, 0xAA, 0x55, 0x00, 0x01, 0x02, 0x03}),
	}
	return map[string]Config{
		"random":   {},
		"narrow":   {ByteMin: 0x10, ByteMax: 0x1A, LenMin: 2, LenMax: 5},
		"targeted": {TargetIDs: []can.ID{0x215, 0x43A, 0x110}},
		"mutate":   {Mode: ModeMutate, Corpus: corpus, MutateBits: 3, MutateID: true},
		"sweep":    {Mode: ModeSweep, IDMin: 0x100, IDMax: 0x103, SweepLen: 2},
	}
}

func drawStream(g *Generator, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = g.Next().String()
	}
	return out
}

// TestRNGResetMatchesColdBuild checks Reset(s) followed by N draws
// replays exactly what NewGenerator under seed s draws, for fresh and
// repeated seeds, in every generator mode.
func TestRNGResetMatchesColdBuild(t *testing.T) {
	const n = 300
	for name, cfg := range rngModes() {
		cfg.Seed = 1
		g, err := NewGenerator(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		drawStream(g, 17)
		for _, seed := range []int64{5, 5, 1, -9, 1 << 40, 5} {
			g.Reset(seed)
			got := drawStream(g, n)
			cfg.Seed = seed
			cold, _ := NewGenerator(cfg)
			want := drawStream(cold, n)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s seed %d draw %d: reset %s, cold %s", name, seed, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRNGResetZeroAlloc pins Reset — fresh or repeated seed — at zero
// allocations: it sits on the world-reuse path of every trial.
func TestRNGResetZeroAlloc(t *testing.T) {
	for name, cfg := range rngModes() {
		g, err := NewGenerator(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seed := int64(0)
		if n := testing.AllocsPerRun(100, func() { seed++; g.Reset(seed) }); n != 0 {
			t.Fatalf("%s: fresh-seed Reset allocates %v times, want 0", name, n)
		}
		if n := testing.AllocsPerRun(100, func() { g.Reset(7) }); n != 0 {
			t.Fatalf("%s: same-seed Reset allocates %v times, want 0", name, n)
		}
	}
}

// TestRNGDrawsInRange checks identifier, length and byte draws stay
// inside ranges of span 1, 3, 9 and 2048 and reach every value in them.
func TestRNGDrawsInRange(t *testing.T) {
	for _, span := range []int{1, 3, 9, 2048} {
		t.Run(fmt.Sprint(span), func(t *testing.T) {
			cfg := Config{Seed: int64(span), IDMin: can.ID(can.MaxID + 1 - span)}
			cfg.IDMax = cfg.IDMin + can.ID(span-1)
			if span <= 9 {
				cfg.LenMin, cfg.LenMax = 8-span+1, 8
				cfg.ByteMin, cfg.ByteMax = 0x40, 0x40+span-1
			}
			g, err := NewGenerator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ids, lens, vals := map[can.ID]bool{}, map[int]bool{}, map[int]bool{}
			for i := 0; i < 60*span+1000; i++ {
				f := g.Next()
				if f.ID < cfg.IDMin || f.ID > cfg.IDMax {
					t.Fatalf("id %v outside [%v,%v]", f.ID, cfg.IDMin, cfg.IDMax)
				}
				if int(f.Len) < cfg.LenMin || int(f.Len) > g.Config().LenMax {
					t.Fatalf("len %d outside range", f.Len)
				}
				ids[f.ID], lens[int(f.Len)] = true, true
				for _, b := range f.Data[:f.Len] {
					if int(b) < cfg.ByteMin || int(b) > g.Config().ByteMax {
						t.Fatalf("byte %#x outside range", b)
					}
					vals[int(b)] = true
				}
			}
			wantLens, wantVals := 9, 256
			if span <= 9 {
				wantLens, wantVals = span, span
			}
			if len(ids) != span || len(lens) != wantLens || len(vals) != wantVals {
				t.Fatalf("covered %d ids, %d lengths, %d byte values; want %d, %d, %d",
					len(ids), len(lens), len(vals), span, wantLens, wantVals)
			}
		})
	}
}

// chiSquare returns Pearson's statistic of counts against a uniform
// expectation.
func chiSquare(counts []int, total int) float64 {
	exp := float64(total) / float64(len(counts))
	var x2 float64
	for _, c := range counts {
		d := float64(c) - exp
		x2 += d * d / exp
	}
	return x2
}

// TestRNGByteUniformity runs a chi-square test of each payload position's
// byte distribution: on the full-range word-fill path of the blind
// generator, and on a narrow byte range drawn one value at a time. The limits are the 0.1 % critical values (255 and 15 degrees
// of freedom); the seeds are fixed, so the test is deterministic.
func TestRNGByteUniformity(t *testing.T) {
	const perBin = 200
	check := func(label string, minByte, span int, limit float64, next func() []byte) {
		t.Helper()
		width := len(next())
		counts := make([][]int, width)
		for i := range counts {
			counts[i] = make([]int, span)
		}
		draws := perBin * span
		for i := 0; i < draws; i++ {
			for pos, b := range next() {
				counts[pos][int(b)-minByte]++
			}
		}
		for pos := range counts {
			if x2 := chiSquare(counts[pos], draws); x2 > limit {
				t.Errorf("%s position %d: chi-square %.1f > %.1f", label, pos, x2, limit)
			}
		}
	}

	full, _ := NewGenerator(Config{Seed: 3, LenMin: 8})
	check("full range", 0, 256, 330.5, func() []byte { f := full.Next(); return f.Data[:f.Len] })

	narrow, _ := NewGenerator(Config{Seed: 3, LenMin: 8, ByteMin: 0x30, ByteMax: 0x3F})
	check("narrow range", 0x30, 16, 37.7, func() []byte { f := narrow.Next(); return f.Data[:f.Len] })
}
