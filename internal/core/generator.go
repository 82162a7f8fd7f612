package core

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/can"
	"repro/internal/faults"
)

// Generator produces fuzz frames according to a Config. It is
// deterministic given the seed.
type Generator struct {
	cfg Config
	pcg *rand.PCG
	rng *rand.Rand

	// Sweep state: an odometer over (payload bytes, id).
	sweepID      can.ID
	sweepPayload []int
}

// NewGenerator validates the configuration and builds a generator.
func NewGenerator(cfg Config) (*Generator, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Validation-time corpus filtering: capture logs legitimately carry
	// remote frames and hand-written corpora can carry malformed ones, but
	// neither is a usable mutation parent (flipping payload bits in an RTR
	// frame yields an invalid frame the port rejects). Filter here, and fail
	// loudly if nothing survives — previously an all-filtered corpus reached
	// nextMutated and panicked in an IntN(0) draw.
	if cfg.Mode == ModeMutate {
		kept := make([]can.Frame, 0, len(cfg.Corpus))
		for _, f := range cfg.Corpus {
			if !f.Remote && f.Validate() == nil {
				kept = append(kept, f)
			}
		}
		if len(kept) == 0 {
			return nil, fmt.Errorf("%w: no usable frames left after validation-time filtering (%d dropped)",
				ErrEmptyCorpus, len(cfg.Corpus))
		}
		cfg.Corpus = kept
	}
	g := &Generator{cfg: cfg, pcg: new(rand.PCG)}
	g.rng = rand.New(g.pcg)
	if cfg.Mode == ModeSweep {
		g.sweepPayload = make([]int, cfg.SweepLen)
	}
	g.Reset(cfg.Seed)
	return g, nil
}

// Config returns the defaulted configuration in effect.
func (g *Generator) Config() Config { return g.cfg }

// Reset restarts the generator under a (possibly different) seed: the RNG
// stream restarts from seed and the sweep odometer returns to its origin.
// NewGenerator runs the same code, so the stream matches a freshly built
// generator's. The already-validated configuration is retained, so Reset
// skips validation and corpus filtering and allocates nothing.
func (g *Generator) Reset(seed int64) {
	g.cfg.Seed = seed
	faults.SeedPCG(g.pcg, seed)
	if g.cfg.Mode == ModeSweep {
		g.sweepID = g.cfg.IDMin
		for i := range g.sweepPayload {
			g.sweepPayload[i] = g.cfg.ByteMin
		}
	}
}

// Next returns the next fuzz frame.
func (g *Generator) Next() can.Frame {
	switch g.cfg.Mode {
	case ModeMutate:
		return g.nextMutated()
	case ModeSweep:
		return g.nextSweep()
	default:
		return g.nextRandom()
	}
}

// nextRandom draws a frame uniformly from the configured ranges — the
// paper's random bytes generator. The full 0x00–0xFF byte range (the
// Table III default) fills the payload eight bytes per draw.
func (g *Generator) nextRandom() can.Frame {
	var f can.Frame
	f.ID = g.randomID()
	length := g.cfg.LenMin + g.rng.IntN(g.cfg.LenMax-g.cfg.LenMin+1)
	f.Len = uint8(length)
	if g.cfg.ByteMin == 0 && g.cfg.ByteMax == 0xFF {
		fillUniform(g.pcg, f.Data[:length])
		return f
	}
	span := g.cfg.ByteMax - g.cfg.ByteMin + 1
	for i := 0; i < length; i++ {
		f.Data[i] = byte(g.cfg.ByteMin + g.rng.IntN(span))
	}
	return f
}

func (g *Generator) randomID() can.ID {
	if n := len(g.cfg.TargetIDs); n > 0 {
		return g.cfg.TargetIDs[g.rng.IntN(n)]
	}
	return g.cfg.IDMin + can.ID(g.rng.IntN(int(g.cfg.IDMax-g.cfg.IDMin)+1))
}

// nextMutated picks a corpus frame and flips MutateBits random bits in the
// payload (and identifier when MutateID is set).
func (g *Generator) nextMutated() can.Frame {
	if len(g.cfg.Corpus) == 0 {
		// Unreachable after NewGenerator's filtering, but a stray empty
		// corpus must degrade to random — never IntN(0).
		return g.nextRandom()
	}
	f := g.cfg.Corpus[g.rng.IntN(len(g.cfg.Corpus))]
	payloadBits := int(f.Len) * 8
	idBits := 0
	if g.cfg.MutateID {
		idBits = 11
	}
	total := payloadBits + idBits
	if total == 0 {
		return f
	}
	for i := 0; i < g.cfg.MutateBits; i++ {
		bit := g.rng.IntN(total)
		if bit < payloadBits {
			f.Data[bit/8] ^= 1 << (bit % 8)
			continue
		}
		idBit := bit - payloadBits
		f.ID ^= 1 << idBit
		f.ID &= can.MaxID
	}
	return f
}

// nextSweep enumerates the space: the identifier advances fastest, then
// the payload odometer. After the last combination the sweep wraps to the
// first.
func (g *Generator) nextSweep() can.Frame {
	var f can.Frame
	f.ID = g.sweepID
	f.Len = uint8(g.cfg.SweepLen)
	for i, v := range g.sweepPayload {
		f.Data[i] = byte(v)
	}
	g.advanceSweep()
	return f
}

func (g *Generator) advanceSweep() {
	idSpan := g.cfg.IDMax - g.cfg.IDMin
	if g.sweepID < g.cfg.IDMin+idSpan {
		g.sweepID++
		return
	}
	g.sweepID = g.cfg.IDMin
	for i := 0; i < len(g.sweepPayload); i++ {
		if g.sweepPayload[i] < g.cfg.ByteMax {
			g.sweepPayload[i]++
			return
		}
		g.sweepPayload[i] = g.cfg.ByteMin
	}
}
