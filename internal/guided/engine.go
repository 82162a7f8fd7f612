package guided

import (
	"fmt"
	"math/rand"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/core"
	"repro/internal/faults"
)

// rngStream is the engine's stream index in the campaign seed's splitmix64
// family (fleet trial seeds use low indices of their own bases; any fixed
// constant works, it just must never change).
const rngStream = 0x6744

// maxPendingFeatures bounds the response features buffered between ticks so
// a babbling bus cannot grow the engine.
const maxPendingFeatures = 256

// exploreOneIn is the blind-exploration rate: one generated frame in this
// many is pure random even when the corpus has parents, so the engine keeps
// probing identifiers outside the corpus's neighbourhood.
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

// WithSeedFrames preloads the corpus (e.g. from a -corpus-in file written
// by a previous campaign). Invalid or remote frames are skipped — a shared
// corpus file must never brick the engine.
func WithSeedFrames(frames []can.Frame) EngineOption {
	return func(e *Engine) { e.addSeedFrames(frames) }
}

// addSeedFrames records the usable frames among frames for Reset to admit.
func (e *Engine) addSeedFrames(frames []can.Frame) {
	for _, f := range frames {
		if !f.Remote && f.Validate() == nil {
			e.seedFrames = append(e.seedFrames, f)
		}
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
// from one splitmix64-derived stream, so the whole campaign is
// deterministic in (config seed, world).
type Engine struct {
	cfg  core.Config
	rng  *rand.Rand
	corp *corpus

	probes     []Probe
	probeHash  []uint64    // hashName of each probe, cached at registration
	probeLast  []uint64    // each probe's bucket at the previous tick, or noBucket
	seedFrames []can.Frame // usable seed and config corpus frames, admitted by Reset
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
		rng:     rand.New(rand.NewSource(0)),
		corp:    newCorpus(),
		pending: make([]uint64, 0, maxPendingFeatures),
	}
	for _, o := range opts {
		o(e)
	}
	e.probeLast = make([]uint64, len(e.probes))
	// Config-level corpus frames seed the pool too (ConfigJSON reuse),
	// after any WithSeedFrames survivors.
	e.addSeedFrames(e.cfg.Corpus)
	e.Reset(cfg.Seed)
	return e, nil
}

// Reset restarts the engine under a new seed; NewEngine runs the same
// code. The RNG stream derives from the seed, the novelty map and
// counters clear, and the corpus is rebuilt from the seed frames in
// their recorded order (WithSeedFrames survivors first, then usable
// config-level corpus frames), so a reused engine's decision stream is
// identical to a freshly built one's. Probes and the introspection slot
// are retained, and the finished trial's counters fold into the slot's
// totals, so /fuzz.json keeps counting across a recycled engine. With no
// seed corpus the reset allocates nothing; admitting seed frames costs
// one index key per frame.
func (e *Engine) Reset(seed int64) {
	e.stats.foldTrial(e)
	e.cfg.Seed = seed
	e.rng.Seed(faults.DeriveSeed(seed, rngStream))
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
		e.PublishStats()
	}
	return f, true
}

// PublishStats pushes the engine's exact counters, plus those of the
// slot's finished trials, into its introspection slot (atomic stores; the
// engine goroutine is the only writer) and refreshes the amortised
// corpus-energy snapshot every energyPublishEvery ticks; a no-op without
// a slot. Next publishes only every statsPublishEvery ticks and on
// novelty, so whoever stops the campaign calls this too — see
// core.Campaign.SetStopHook — to leave the slot exact.
func (e *Engine) PublishStats() {
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
	if e.sent%energyPublishEvery == 1 {
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

// generate picks the next frame: mutate a corpus parent, or explore.
func (e *Engine) generate() can.Frame {
	if e.corp.size() == 0 || e.rng.Intn(exploreOneIn) == 0 {
		e.explorations++
		return e.randomFrame()
	}
	e.mutations++
	return e.mutate(e.corp.pick(e.rng))
}

// randomFrame mirrors the blind generator's uniform draw over the
// configured ranges.
func (e *Engine) randomFrame() can.Frame {
	var f can.Frame
	if n := len(e.cfg.TargetIDs); n > 0 {
		f.ID = e.cfg.TargetIDs[e.rng.Intn(n)]
	} else {
		f.ID = e.cfg.IDMin + can.ID(e.rng.Intn(int(e.cfg.IDMax-e.cfg.IDMin)+1))
	}
	length := e.cfg.LenMin + e.rng.Intn(e.cfg.LenMax-e.cfg.LenMin+1)
	f.Len = uint8(length)
	span := e.cfg.ByteMax - e.cfg.ByteMin + 1
	for i := 0; i < length; i++ {
		f.Data[i] = byte(e.cfg.ByteMin + e.rng.Intn(span))
	}
	return f
}

// mutate applies a small stack of random operators to a corpus parent.
// The identifier is mostly preserved — reaching a responsive identifier is
// the hard-won part of a corpus entry — while payload bits, bytes and
// length move freely within the configured ranges.
func (e *Engine) mutate(f can.Frame) can.Frame {
	ops := 1 + e.rng.Intn(3)
	span := e.cfg.ByteMax - e.cfg.ByteMin + 1
	for i := 0; i < ops; i++ {
		switch e.rng.Intn(8) {
		case 0, 1, 2: // flip one payload bit
			if f.Len > 0 {
				bit := e.rng.Intn(int(f.Len) * 8)
				f.Data[bit/8] ^= 1 << (bit % 8)
			}
		case 3, 4: // randomize one payload byte
			if f.Len > 0 {
				f.Data[e.rng.Intn(int(f.Len))] = byte(e.cfg.ByteMin + e.rng.Intn(span))
			}
		case 5: // resize within the length range, filling new bytes randomly
			newLen := e.cfg.LenMin + e.rng.Intn(e.cfg.LenMax-e.cfg.LenMin+1)
			for j := int(f.Len); j < newLen; j++ {
				f.Data[j] = byte(e.cfg.ByteMin + e.rng.Intn(span))
			}
			for j := newLen; j < int(f.Len); j++ {
				f.Data[j] = 0
			}
			f.Len = uint8(newLen)
		case 6: // nudge a byte ±1 (gradient walking for magic values)
			if f.Len > 0 {
				j := e.rng.Intn(int(f.Len))
				if e.rng.Intn(2) == 0 {
					f.Data[j]++
				} else {
					f.Data[j]--
				}
			}
		case 7: // rarely, flip a low identifier bit (stay in the neighbourhood)
			f.ID ^= 1 << e.rng.Intn(4)
			if f.ID < e.cfg.IDMin || f.ID > e.cfg.IDMax {
				f.ID = e.cfg.IDMin + can.ID(e.rng.Intn(int(e.cfg.IDMax-e.cfg.IDMin)+1))
			}
		}
	}
	return f
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

// Config returns the defaulted configuration in effect.
func (e *Engine) Config() core.Config { return e.cfg }
