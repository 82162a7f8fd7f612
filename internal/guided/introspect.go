package guided

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Fuzzer introspection: the guided engine's internal state — novelty-map
// saturation, corpus shape, mutate-vs-explore balance, staleness — exposed
// as a sampleable aggregate, the /fuzz.json view of the campaign
// observatory. The design mirrors the telemetry hooks: a nil
// *Introspection (the default) costs the engine one pointer check per
// tick and allocates nothing, so the zero-alloc guided hot path pinned by
// the root alloc tests is untouched unless introspection is requested.
//
// One Introspection aggregates any number of engines: a fleet campaign
// registers every trial's engine as it is built, and Snapshot folds the
// live ones into campaign-level totals. Engines publish through atomic
// stores (single writer: the engine's own scheduler goroutine), so
// sampling never stalls a worker. A live sample is at most
// statsPublishEvery ticks stale; once the campaign stops (and its stop
// hook calls Engine.PublishStats) it is exact.

// statsPublishEvery is how many engine ticks pass between scalar-counter
// publications; a tick that finds novelty publishes at once.
const statsPublishEvery = 64

// energyPublishEvery is how many engine ticks pass between corpus-energy
// snapshots. Energies need a short lock and a buffer copy, so they are
// amortised further. A multiple of statsPublishEvery, so every energy
// tick is also a publishing tick.
const energyPublishEvery = 512

// EngineStats is one engine's introspection slot. All scalar fields are
// atomics written by the engine goroutine and read by samplers; the energy
// snapshot is guarded by its own mutex because it is a slice copy.
type EngineStats struct {
	execs             atomic.Uint64
	noveltyHits       atomic.Uint64
	mutations         atomic.Uint64
	explorations      atomic.Uint64
	execsSinceNovelty atomic.Uint64
	noveltyBits       atomic.Int64
	corpusSize        atomic.Int64

	// finished sums the counters of the trials the engine ran before its
	// last Reset. Only the engine goroutine touches it: Reset folds a
	// trial in, PublishStats adds it to the live trial's counters.
	finished struct{ execs, noveltyHits, mutations, explorations uint64 }

	mu       sync.Mutex
	energies []uint64
}

// foldTrial adds the engine's current trial counters to the slot's
// finished totals; a no-op on a nil slot.
func (s *EngineStats) foldTrial(e *Engine) {
	if s == nil {
		return
	}
	s.finished.execs += e.sent
	s.finished.noveltyHits += e.noveltyHits
	s.finished.mutations += e.mutations
	s.finished.explorations += e.explorations
}

// publishEnergies refreshes the slot's corpus-energy snapshot, reusing the
// previous buffer.
func (s *EngineStats) publishEnergies(c *corpus) {
	s.mu.Lock()
	s.energies = c.energies(s.energies[:0])
	s.mu.Unlock()
}

// appendEnergies copies the slot's snapshot into dst under the lock.
func (s *EngineStats) appendEnergies(dst []uint64) []uint64 {
	s.mu.Lock()
	dst = append(dst, s.energies...)
	s.mu.Unlock()
	return dst
}

// Introspection aggregates the EngineStats slots of every registered
// engine. The zero value is unusable; a nil pointer is a valid "disabled"
// plane (Register returns nil, Snapshot returns the zero snapshot).
type Introspection struct {
	mu      sync.Mutex
	engines []*EngineStats
}

// NewIntrospection returns an empty aggregation plane.
func NewIntrospection() *Introspection { return &Introspection{} }

// Register allocates a stats slot for one engine. Nil-safe: registering on
// a nil plane returns a nil slot, which the engine treats as "disabled".
func (in *Introspection) Register() *EngineStats {
	if in == nil {
		return nil
	}
	s := &EngineStats{}
	in.mu.Lock()
	in.engines = append(in.engines, s)
	in.mu.Unlock()
	return s
}

// EnergyQuantiles summarises the corpus energy distribution across all
// registered engines — how concentrated the feedback credit is.
type EnergyQuantiles struct {
	P25 uint64 `json:"p25"`
	P50 uint64 `json:"p50"`
	P75 uint64 `json:"p75"`
	P90 uint64 `json:"p90"`
	P99 uint64 `json:"p99"`
	Max uint64 `json:"max"`
	// Sum is the total energy in the corpus (the parent-selection weight
	// mass).
	Sum uint64 `json:"sum"`
}

// FuzzSnapshot is one sample of guided-engine internals — the /fuzz.json
// document. Counters are summed over every trial of every engine
// registered so far: a finished trial's engine stops moving, and a
// recycled engine carries its finished trials' counts forward. Gauges
// (novelty bits, corpus size, staleness) describe each engine's current
// trial.
type FuzzSnapshot struct {
	// Engines is the number of registered engine slots.
	Engines int `json:"engines"`
	// NoveltyMapBits is each engine's novelty-map capacity in bits.
	NoveltyMapBits int `json:"noveltyMapBits"`
	// NoveltyBitsSet sums set novelty bits across engines;
	// NoveltySaturation is NoveltyBitsSet/(Engines*NoveltyMapBits).
	NoveltyBitsSet    int64   `json:"noveltyBitsSet"`
	NoveltySaturation float64 `json:"noveltySaturation"`
	// CorpusSize sums retained corpus entries across engines.
	CorpusSize int64 `json:"corpusSize"`
	// Execs, NoveltyHits, Mutations and Explorations sum the per-engine
	// counters; MutateRatio is Mutations/(Mutations+Explorations).
	Execs        uint64  `json:"execs"`
	NoveltyHits  uint64  `json:"noveltyHits"`
	Mutations    uint64  `json:"mutations"`
	Explorations uint64  `json:"explorations"`
	MutateRatio  float64 `json:"mutateRatio"`
	// ExecsSinceNoveltyMin is the smallest per-engine staleness — how long
	// ago *any* engine last saw new behaviour.
	ExecsSinceNoveltyMin uint64 `json:"execsSinceNoveltyMin"`
	// Energy summarises the merged corpus energy distribution (zero when
	// no engine has published a corpus snapshot yet).
	Energy EnergyQuantiles `json:"energy"`
}

// Snapshot folds every registered engine into one campaign-level view.
// Safe to call concurrently with engines running.
func (in *Introspection) Snapshot() FuzzSnapshot {
	var s FuzzSnapshot
	if in == nil {
		return s
	}
	in.mu.Lock()
	engines := make([]*EngineStats, len(in.engines))
	copy(engines, in.engines)
	in.mu.Unlock()

	s.Engines = len(engines)
	s.NoveltyMapBits = mapBits
	var energies []uint64
	first := true
	for _, e := range engines {
		s.Execs += e.execs.Load()
		s.NoveltyHits += e.noveltyHits.Load()
		s.Mutations += e.mutations.Load()
		s.Explorations += e.explorations.Load()
		s.NoveltyBitsSet += e.noveltyBits.Load()
		s.CorpusSize += e.corpusSize.Load()
		if since := e.execsSinceNovelty.Load(); first || since < s.ExecsSinceNoveltyMin {
			s.ExecsSinceNoveltyMin = since
			first = false
		}
		energies = e.appendEnergies(energies)
	}
	if s.Engines > 0 {
		s.NoveltySaturation = float64(s.NoveltyBitsSet) / float64(s.Engines*mapBits)
	}
	if gen := s.Mutations + s.Explorations; gen > 0 {
		s.MutateRatio = float64(s.Mutations) / float64(gen)
	}
	if len(energies) > 0 {
		sort.Slice(energies, func(i, j int) bool { return energies[i] < energies[j] })
		q := func(p float64) uint64 {
			i := int(p * float64(len(energies)-1))
			return energies[i]
		}
		s.Energy = EnergyQuantiles{
			P25: q(0.25), P50: q(0.50), P75: q(0.75),
			P90: q(0.90), P99: q(0.99), Max: energies[len(energies)-1],
		}
		for _, e := range energies {
			s.Energy.Sum += e
		}
	}
	return s
}
