package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/can"
)

func TestConfigDefaults(t *testing.T) {
	g, err := NewGenerator(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := g.Config()
	if cfg.Mode != ModeRandom || cfg.IDMax != can.MaxID || cfg.LenMax != 8 ||
		cfg.ByteMax != 255 || cfg.Interval != time.Millisecond {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want error
	}{
		{"id min above max", Config{IDMin: 0x700, IDMax: 0x100}, ErrIDRange},
		{"bad target id", Config{TargetIDs: []can.ID{0x900}}, ErrIDRange},
		{"len min above max", Config{LenMin: 5, LenMax: 3}, ErrLenRange},
		{"byte min above max", Config{ByteMin: 200, ByteMax: 100}, ErrByteRange},
		{"byte max too big", Config{ByteMax: 300}, ErrByteRange},
		{"mutate without corpus", Config{Mode: ModeMutate}, ErrEmptyCorpus},
		{"sweep bad length", Config{Mode: ModeSweep, SweepLen: 9}, ErrLenRange},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewGenerator(c.cfg); !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
		})
	}
}

func TestRandomFramesRespectRanges(t *testing.T) {
	g, err := NewGenerator(Config{
		Seed: 7, IDMin: 0x100, IDMax: 0x1FF,
		LenMin: 2, LenMax: 4, ByteMin: 0x40, ByteMax: 0x4F,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		f := g.Next()
		if f.ID < 0x100 || f.ID > 0x1FF {
			t.Fatalf("id %v out of range", f.ID)
		}
		if f.Len < 2 || f.Len > 4 {
			t.Fatalf("len %d out of range", f.Len)
		}
		for _, b := range f.Data[:f.Len] {
			if b < 0x40 || b > 0x4F {
				t.Fatalf("byte %#x out of range", b)
			}
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("invalid frame: %v", err)
		}
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	mk := func(seed int64) []string {
		g, _ := NewGenerator(Config{Seed: seed})
		out := make([]string, 100)
		for i := range out {
			out[i] = g.Next().String()
		}
		return out
	}
	a, b := mk(42), mk(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different streams")
		}
	}
	c := mk(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandomCoversFullRanges(t *testing.T) {
	g, _ := NewGenerator(Config{Seed: 1})
	ids := map[can.ID]bool{}
	lens := map[uint8]bool{}
	for i := 0; i < 200000; i++ {
		f := g.Next()
		ids[f.ID] = true
		lens[f.Len] = true
	}
	if len(lens) != 9 {
		t.Fatalf("lengths covered = %d, want 9", len(lens))
	}
	if len(ids) < 2000 {
		t.Fatalf("ids covered = %d, want ~2048", len(ids))
	}
}

func TestTargetIDsMode(t *testing.T) {
	targets := []can.ID{0x215, 0x43A, 0x110}
	g, err := NewGenerator(Config{Seed: 3, TargetIDs: targets})
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[can.ID]bool{0x215: true, 0x43A: true, 0x110: true}
	seen := map[can.ID]bool{}
	for i := 0; i < 1000; i++ {
		f := g.Next()
		if !allowed[f.ID] {
			t.Fatalf("id %v not in target list", f.ID)
		}
		seen[f.ID] = true
	}
	if len(seen) != 3 {
		t.Fatalf("only %d of 3 targets used", len(seen))
	}
}

func TestMutateFlipsExactBits(t *testing.T) {
	base := can.MustNew(0x215, []byte{0x10, 0x5F, 0x01, 0x00, 0x00, 0x01, 0x20})
	g, err := NewGenerator(Config{Seed: 5, Mode: ModeMutate, Corpus: []can.Frame{base}, MutateBits: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		f := g.Next()
		if f.ID != base.ID {
			t.Fatal("id mutated despite MutateID=false")
		}
		if f.Len != base.Len {
			t.Fatal("length mutated")
		}
		diff := 0
		for j := 0; j < int(f.Len); j++ {
			b := f.Data[j] ^ base.Data[j]
			for b != 0 {
				diff += int(b & 1)
				b >>= 1
			}
		}
		if diff != 1 {
			t.Fatalf("%d bits differ, want exactly 1", diff)
		}
	}
}

func TestMutateWithIDRegion(t *testing.T) {
	base := can.MustNew(0x215, []byte{0x10})
	g, _ := NewGenerator(Config{Seed: 5, Mode: ModeMutate, Corpus: []can.Frame{base}, MutateBits: 1, MutateID: true})
	idChanged := false
	for i := 0; i < 2000; i++ {
		f := g.Next()
		if err := f.Validate(); err != nil {
			t.Fatalf("mutated frame invalid: %v", err)
		}
		if f.ID != base.ID {
			idChanged = true
		}
	}
	if !idChanged {
		t.Fatal("identifier never mutated despite MutateID=true")
	}
}

func TestMutateEmptyPayloadNoID(t *testing.T) {
	base := can.MustNew(0x100, nil)
	g, _ := NewGenerator(Config{Seed: 1, Mode: ModeMutate, Corpus: []can.Frame{base}})
	f := g.Next()
	if f != base {
		t.Fatal("nothing to mutate but frame changed")
	}
}

func TestSweepEnumeratesWholeSpace(t *testing.T) {
	g, err := NewGenerator(Config{
		Mode: ModeSweep, IDMin: 0, IDMax: 3, SweepLen: 1, ByteMin: 0, ByteMax: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	want := 4 * 4 // 4 ids x 4 byte values
	first := g.Next()
	seen[first.String()] = true
	for i := 1; i < want; i++ {
		seen[g.Next().String()] = true
	}
	if len(seen) != want {
		t.Fatalf("enumerated %d distinct frames, want %d", len(seen), want)
	}
	if f := g.Next(); f != first {
		t.Fatalf("sweep did not wrap: frame %d = %v, want %v", want, f, first)
	}
}

func TestSweepZeroLength(t *testing.T) {
	g, err := NewGenerator(Config{Mode: ModeSweep, IDMin: 0, IDMax: 1, SweepLen: 0})
	if err != nil {
		t.Fatal(err)
	}
	a, b := g.Next(), g.Next()
	if a.ID != 0 || b.ID != 1 || a.Len != 0 {
		t.Fatalf("sweep frames = %v, %v", a, b)
	}
	if c := g.Next(); c != a {
		t.Fatalf("0-length sweep did not wrap after covering ids: %v", c)
	}
}

func TestSpaceSizeMatchesPaperExample(t *testing.T) {
	// §V: 11-bit id + 1 payload byte = 2^19.
	cfg := Config{Mode: ModeSweep, SweepLen: 1}
	if got := cfg.SpaceSize(); got != 1<<19 {
		t.Fatalf("SpaceSize = %d, want 2^19", got)
	}
}

func TestSpaceSizeRandomSumsLengths(t *testing.T) {
	cfg := Config{LenMin: 0, LenMax: 1}
	// 2048 * (1 + 256)
	if got := cfg.SpaceSize(); got != 2048*257 {
		t.Fatalf("SpaceSize = %d", got)
	}
}

func TestSpaceSizeTargeted(t *testing.T) {
	cfg := Config{TargetIDs: []can.ID{1, 2}, LenMin: 1, LenMax: 1}
	if got := cfg.SpaceSize(); got != 2*256 {
		t.Fatalf("SpaceSize = %d", got)
	}
}

func TestModeString(t *testing.T) {
	if ModeRandom.String() != "random" || ModeMutate.String() != "mutate" ||
		ModeSweep.String() != "sweep" || Mode(0).String() == "" {
		t.Fatal("Mode.String broken")
	}
}

func BenchmarkGeneratorRandom(b *testing.B) {
	g, _ := NewGenerator(Config{Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func TestSpaceSizeSaturatesInsteadOfOverflowing(t *testing.T) {
	// The full 8-byte space (2048 * 256^8) exceeds uint64: it must clamp,
	// not wrap.
	full := Config{}.SpaceSize()
	if full != math.MaxUint64 {
		t.Fatalf("full space = %d, want saturation at MaxUint64", full)
	}
	// A targeted space must always be <= the blind space over the same
	// length range.
	targeted := Config{TargetIDs: []can.ID{1, 2, 3}}.SpaceSize()
	if targeted > full {
		t.Fatalf("targeted %d > blind %d", targeted, full)
	}
}

func TestMutateCorpusFilteredEmptyReturnsErr(t *testing.T) {
	// Remote frames and malformed frames are dropped at construction; a
	// corpus with no usable parent must fail with ErrEmptyCorpus instead of
	// reaching rand.Intn(0) in nextMutated (regression: that panicked).
	remote := can.Frame{ID: 0x123, Len: 2, Remote: true}
	invalid := can.Frame{ID: 0x900} // > MaxID
	_, err := NewGenerator(Config{Mode: ModeMutate, Corpus: []can.Frame{remote, invalid}})
	if !errors.Is(err, ErrEmptyCorpus) {
		t.Fatalf("err = %v, want ErrEmptyCorpus", err)
	}
}

func TestMutateCorpusFilterKeepsValidFrames(t *testing.T) {
	remote := can.Frame{ID: 0x123, Len: 2, Remote: true}
	good := can.Frame{ID: 0x215, Len: 1, Data: [8]byte{0x20}}
	g, err := NewGenerator(Config{Mode: ModeMutate, Corpus: []can.Frame{remote, good}, MutateBits: 1})
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	if n := len(g.Config().Corpus); n != 1 {
		t.Fatalf("filtered corpus size = %d, want 1", n)
	}
	for i := 0; i < 100; i++ {
		f := g.Next()
		if f.Remote {
			t.Fatal("mutated a remote frame")
		}
		if f.ID != good.ID && !g.Config().MutateID {
			t.Fatalf("parent leaked wrong id %v", f.ID)
		}
	}
}

func TestModeGuidedFallsBackToRandom(t *testing.T) {
	// Without a FrameSource attached, guided mode degrades to the blind
	// random generator so the Config stays runnable anywhere.
	guided, _ := NewGenerator(Config{Seed: 7, Mode: ModeGuided})
	random, _ := NewGenerator(Config{Seed: 7, Mode: ModeRandom})
	for i := 0; i < 50; i++ {
		if g, r := guided.Next(), random.Next(); g != r {
			t.Fatalf("frame %d: guided %v != random %v", i, g, r)
		}
	}
	if ModeGuided.String() != "guided" {
		t.Fatal("ModeGuided.String() != guided")
	}
}
