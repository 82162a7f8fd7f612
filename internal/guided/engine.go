package guided

import (
	"fmt"
	"math/bits"
	"math/rand/v2"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/core"
	"repro/internal/faults"
)

// rngStream and exploreStream are the engine's stream indices in the
// campaign seed's splitmix64 family (fleet trial seeds use low indices of
// their own bases; any fixed constants work, they just must never
// change). rngStream drives the engine's decisions and mutations;
// exploreStream seeds its blind generator, so explored frames never
// replay the stream a blind campaign draws at the same seed.
const (
	rngStream     = 0x6744
	exploreStream = 0x6745
)

// maxPendingFeatures bounds the response features buffered between ticks so
// a babbling bus cannot grow the engine.
const maxPendingFeatures = 256

// exploreOneIn is the blind-exploration rate: one generated frame in this
// many is pure random even when the corpus has parents, so the engine keeps
// probing identifiers outside the corpus's neighbourhood. A power of two:
// the decision is the low bits of the frame's word.
const exploreOneIn = 8

// Probe samples one scalar of system state the bus does not broadcast —
// a lock flag, a UDS session level, an error counter. The engine hashes
// (name, bucketized value) into the novelty map each tick, so a probe
// moving to a value bucket it has never occupied counts as novel feedback.
// Fn runs on the scheduler goroutine; it must be cheap and side-effect
// free.
type Probe struct {
	Name string
	Fn   func() uint64
}

// EngineOption configures an Engine.
type EngineOption func(*Engine)

// WithProbes registers state probes. Probe features are keyed by name, so
// registration order does not affect which behaviours count as novel. Name
// hashes are computed once here rather than on every harvest tick.
func WithProbes(probes ...Probe) EngineOption {
	return func(e *Engine) {
		for _, p := range probes {
			e.probes = append(e.probes, p)
			e.probeHash = append(e.probeHash, hashName(p.Name))
		}
	}
}

// noBucket marks a probe not yet sampled since construction or Reset;
// bucketize never returns it.
const noBucket = ^uint64(0)

// WithIntrospection registers the engine on the given introspection plane
// (the /fuzz.json view). Nil is a no-op: the engine's per-tick publishing
// stays a single branch and the hot path stays allocation-free.
func WithIntrospection(in *Introspection) EngineOption {
	return func(e *Engine) {
		e.stats = in.Register()
	}
}

// Engine is the coverage-guided frame source: it implements
// core.FrameSource (install with WithFrameSource/SetFrameSource) and
// core.CorpusStats (so BuildReport embeds corpus size and novelty hits).
//
// Per timing tick the engine (1) harvests feedback accumulated since the
// previous tick — response (id, dlc) pairs seen on the bus plus the
// registered probes — into the novelty map, (2) credits any novelty to the
// frame it sent last, admitting it to the corpus or topping up its energy,
// and (3) emits the next frame: an energy-weighted corpus parent mutated a
// little, or a pure-random frame for exploration. All randomness comes
// from two splitmix64-derived streams of the seed, so the whole campaign
// is deterministic in (config seed, world).
type Engine struct {
	cfg  core.Config
	pcg  rand.PCG        // decisions and mutations, drawn word by word
	gen  *core.Generator // exploration: the blind generator's uniform draw
	corp *corpus

	probes     []Probe
	probeHash  []uint64    // hashName of each probe, cached at registration
	probeLast  []uint64    // each probe's bucket at the previous tick, or noBucket
	seedFrames []can.Frame // usable config corpus frames, admitted by Reset
	pending    []uint64

	engineRun

	stats *EngineStats // nil unless WithIntrospection registered the engine
}

// engineRun is the engine's per-trial state. Reset assigns it whole, so a
// cold build (NewEngine calls Reset) and a warm reset start identically.
type engineRun struct {
	nov noveltyMap

	lastSent  can.Frame
	lastValid bool

	noveltyHits uint64
	sent        uint64

	// Introspection bookkeeping, maintained unconditionally (plain integer
	// adds) and published to the stats slot only when one is registered.
	noveltyBits  uint64 // set bits in the novelty map, tracked incrementally
	mutations    uint64 // frames produced by corpus mutation
	explorations uint64 // frames produced by blind exploration
	sinceNovelty uint64 // ticks since the last novel feature
}

// NewEngine validates the configuration (ranges, corpus syntax) exactly as
// a campaign would and builds the feedback engine.
func NewEngine(cfg core.Config, opts ...EngineOption) (*Engine, error) {
	if cfg.Mode == 0 {
		cfg.Mode = core.ModeGuided
	}
	gen, err := core.NewGenerator(cfg)
	if err != nil {
		return nil, fmt.Errorf("guided: %w", err)
	}
	e := &Engine{
		cfg:     gen.Config(), // defaults applied
		gen:     gen,
		corp:    newCorpus(),
		pending: make([]uint64, 0, maxPendingFeatures),
	}
	for _, o := range opts {
		o(e)
	}
	e.probeLast = make([]uint64, len(e.probes))
	// The config corpus seeds the pool. Invalid or remote frames are
	// skipped: a shared corpus file must never brick the engine.
	for _, f := range e.cfg.Corpus {
		if !f.Remote && f.Validate() == nil {
			e.seedFrames = append(e.seedFrames, f)
		}
	}
	e.Reset(cfg.Seed)
	return e, nil
}

// Reset restarts the engine under a new seed; NewEngine runs the same
// code. The RNG streams derive from the seed, the novelty map and
// counters clear, and the corpus is rebuilt from the usable config corpus
// frames in their recorded order, so a reused engine's decision stream is
// identical to a freshly built one's. Probes and the introspection slot
// are retained, and the finished trial's counters fold into the slot's
// totals, so /fuzz.json keeps counting across a recycled engine. Reset
// allocates nothing: the corpus index is keyed by frame value.
func (e *Engine) Reset(seed int64) {
	e.stats.foldTrial(e)
	e.cfg.Seed = seed
	faults.SeedPCG(&e.pcg, faults.DeriveSeed(seed, rngStream))
	e.gen.Reset(faults.DeriveSeed(seed, exploreStream))
	for i := range e.probeLast {
		e.probeLast[i] = noBucket
	}
	e.corp.reset()
	for _, f := range e.seedFrames {
		e.corp.add(f, 1)
	}
	e.pending = e.pending[:0]
	e.engineRun = engineRun{}
}

// Observe implements core.FrameSource: every message the campaign's port
// receives (which, on this bus model, is exactly the traffic *other* nodes
// transmit) contributes a response feature.
func (e *Engine) Observe(m bus.Message) {
	if len(e.pending) >= maxPendingFeatures {
		return
	}
	e.pending = append(e.pending,
		hashFeature(featResponse, uint64(m.Frame.ID), uint64(m.Frame.Len)))
}

// Next implements core.FrameSource: harvest feedback, credit the previous
// frame, emit the next one.
func (e *Engine) Next() (can.Frame, bool) {
	novel := e.harvest()
	if novel > 0 {
		e.noveltyHits += novel
		e.noveltyBits += novel // each novel feature set a fresh map bit
		e.sinceNovelty = 0
		if e.lastValid {
			e.corp.add(e.lastSent, novel)
		}
	} else {
		e.sinceNovelty++
	}
	f := e.generate()
	e.lastSent, e.lastValid = f, true
	e.sent++
	if e.stats != nil && (novel > 0 || e.sent%statsPublishEvery == 1) {
		e.publish(e.sent%energyPublishEvery == 1)
	}
	return f, true
}

// PublishStats pushes the engine's exact counters, plus those of the
// slot's finished trials, and its corpus energies into its introspection
// slot; a no-op without a slot. Next publishes only every
// statsPublishEvery ticks and on novelty, and the energies only every
// energyPublishEvery ticks, so whoever stops the campaign calls this —
// see core.Campaign.SetStopHook — to leave the slot exact.
func (e *Engine) PublishStats() { e.publish(true) }

// publish stores the counters into the slot (atomic stores; the engine
// goroutine is the only writer) and, when energies is set, refreshes the
// corpus-energy snapshot.
func (e *Engine) publish(energies bool) {
	s := e.stats
	if s == nil {
		return
	}
	s.execs.Store(s.finished.execs + e.sent)
	s.noveltyHits.Store(s.finished.noveltyHits + e.noveltyHits)
	s.mutations.Store(s.finished.mutations + e.mutations)
	s.explorations.Store(s.finished.explorations + e.explorations)
	s.execsSinceNovelty.Store(e.sinceNovelty)
	s.noveltyBits.Store(int64(e.noveltyBits))
	s.corpusSize.Store(int64(e.corp.size()))
	if energies {
		s.publishEnergies(e.corp)
	}
}

// harvest drains buffered response features, samples the probes, and
// returns how many features were novel.
//
// A probe whose bucket has not moved since the previous tick is skipped:
// its feature hash is the one observed then, whose bit is still set
// (bits clear only on Reset), so observing it again could only report
// "not novel". Skipping it is exact and saves the hash.
func (e *Engine) harvest() uint64 {
	var novel uint64
	for _, h := range e.pending {
		if e.nov.observe(h) {
			novel++
		}
	}
	e.pending = e.pending[:0]
	for i, p := range e.probes {
		b := bucketize(p.Fn())
		if b == e.probeLast[i] {
			continue
		}
		e.probeLast[i] = b
		if e.nov.observe(hashFeature(featProbe, e.probeHash[i], b)) {
			novel++
		}
	}
	return novel
}

// The draw layout. A frame costs one word of the engine's PCG for its
// decisions, then one word per mutation operator; a resize that grows the
// payload draws one more word per two new bytes. An explored frame comes
// from the blind generator instead. Each field is a disjoint bit range of
// its word, scaled onto its range by multiply-shift (see scale):
//
//	frame word:    bits 0-2   explore when zero (1 in exploreOneIn)
//	               bits 3-18  operator count, 1-3
//	               bits 19-63 the parent's point on the corpus energy line
//	operator word: bits 0-2   operator class, through opTable
//	               bits 3-31  value: a payload byte, an identifier bit,
//	                          a nudge direction
//	               bits 32-63 position: a payload bit or byte, a new
//	                          length, a replacement identifier
const (
	countShift, countBits = 3, 16
	parentShift           = 19
	valueShift, valueBits = 3, 29
	posShift, posBits     = 32, 32
)

// Mutation operator classes.
const (
	opFlipBit = iota // flip one payload bit
	opSetByte        // randomize one payload byte
	opResize         // resize within the length range, filling new bytes randomly
	opNudge          // nudge a byte ±1 (gradient walking for magic values)
	opFlipID         // flip a low identifier bit, or pick a listed target ID
)

// opTable maps an operator word's class field to its operator: the
// classes fall 3:2:1:1:1 out of 8.
var opTable = [8]uint8{opFlipBit, opFlipBit, opFlipBit, opSetByte, opSetByte, opResize, opNudge, opFlipID}

// scale maps a width-bit field onto [0, n) by multiply-shift, as
// field*n >> width: every result takes 2^width/n field values, give or
// take one, so the draw is uniform to within n/2^width. n must stay
// below 2^(64-width).
func scale(field uint64, width uint, n int) int {
	return int(field * uint64(n) >> width)
}

// opCount is the number of operators, 1-3, a frame word calls for.
func opCount(w uint64) int {
	return 1 + scale(w>>countShift&(1<<countBits-1), countBits, 3)
}

// generate picks the next frame: mutate a corpus parent, or explore.
func (e *Engine) generate() can.Frame {
	var w uint64 // an empty corpus leaves zero: explore
	if e.corp.size() > 0 {
		w = e.pcg.Uint64()
	}
	if w%exploreOneIn == 0 {
		e.explorations++
		return e.gen.Next()
	}
	e.mutations++
	x, _ := bits.Mul64(w>>parentShift<<parentShift, e.corp.total)
	f := e.corp.entries[e.corp.pick(x)].frame
	for n := opCount(w); n > 0; n-- {
		e.mutate(&f, e.pcg.Uint64())
	}
	return f
}

// mutate applies the operator word w to f. The identifier is mostly
// preserved — reaching a responsive identifier is the hard-won part of a
// corpus entry — while payload bits, bytes and length move freely within
// the configured ranges. Under a TargetIDs list the identifier operator
// picks a listed identifier instead of flipping a bit.
func (e *Engine) mutate(f *can.Frame, w uint64) {
	val, pos := w>>valueShift&(1<<valueBits-1), w>>posShift
	switch op := opTable[w%8]; op {
	case opResize:
		newLen := e.cfg.LenMin + scale(pos, posBits, e.cfg.LenMax-e.cfg.LenMin+1)
		var r uint64
		for j := int(f.Len); j < newLen; j++ {
			if (j-int(f.Len))%2 == 0 {
				r = e.pcg.Uint64()
			}
			f.Data[j] = e.randByte(r&(1<<32-1), 32)
			r >>= 32
		}
		for j := newLen; j < int(f.Len); j++ {
			f.Data[j] = 0
		}
		f.Len = uint8(newLen)
	case opFlipID:
		if ids := e.cfg.TargetIDs; len(ids) > 0 {
			f.ID = ids[scale(pos, posBits, len(ids))]
			return
		}
		f.ID ^= 1 << (val & 3)
		if f.ID < e.cfg.IDMin || f.ID > e.cfg.IDMax {
			f.ID = e.cfg.IDMin + can.ID(scale(pos, posBits, int(e.cfg.IDMax-e.cfg.IDMin)+1))
		}
	default: // one payload byte: flip a bit of it, rewrite it or nudge it
		if f.Len == 0 {
			return
		}
		// The byte is bit/8 for every class. Computing all three outcomes
		// and indexing by class keeps the three-quarters of operators that
		// land here free of a data-dependent branch.
		bit := scale(pos, posBits, int(f.Len)*8)
		b := &f.Data[bit/8]
		next := [...]byte{
			opFlipBit: *b ^ 1<<(bit%8),
			opSetByte: e.randByte(val, valueBits),
			opNudge:   *b + 1 - byte(val&1)<<1, // +1 or -1
		}
		*b = next[op]
	}
}

// randByte scales a width-bit field onto [ByteMin, ByteMax].
func (e *Engine) randByte(field uint64, width uint) byte {
	return byte(e.cfg.ByteMin + scale(field, width, e.cfg.ByteMax-e.cfg.ByteMin+1))
}

// CorpusSize implements core.CorpusStats.
func (e *Engine) CorpusSize() int { return e.corp.size() }

// NoveltyHits implements core.CorpusStats.
func (e *Engine) NoveltyHits() uint64 { return e.noveltyHits }

// NoveltyBits returns the number of distinct behaviours recorded (set bits
// in the novelty map).
func (e *Engine) NoveltyBits() int { return e.nov.count() }

// Mutations and Explorations report the generate-path split: frames
// produced by mutating a corpus parent vs blind exploration.
func (e *Engine) Mutations() uint64 { return e.mutations }

// Explorations reports frames produced by blind exploration.
func (e *Engine) Explorations() uint64 { return e.explorations }

// ExecsSinceNovelty reports ticks since the last novel feature — the
// engine's staleness signal.
func (e *Engine) ExecsSinceNovelty() uint64 { return e.sinceNovelty }

// CorpusFrames returns the corpus in serialized "ID#HEXDATA" form,
// admission order.
func (e *Engine) CorpusFrames() []string { return e.corp.frames() }
