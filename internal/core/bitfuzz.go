package core

import (
	"math/rand/v2"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/clock"
	"repro/internal/faults"
)

// Data-link-layer fuzzing — the paper's §VII extension "Investigate
// manipulation of data packets at the bit level to fuzz CAN protocol
// control bits (the data link layer)". A BitFuzzer takes valid frames,
// encodes them to their stuffed wire bit sequence, flips bits anywhere in
// that sequence (identifier, control field, data, CRC, stuff bits alike)
// and injects the result through Port.SendRaw. Receivers either accept a
// (rare) still-valid frame or signal an error frame, driving the victims'
// fault-confinement state machines.

// BitFuzzConfig tunes a BitFuzzer.
type BitFuzzConfig struct {
	// Seed makes the run reproducible.
	Seed int64
	// Corpus supplies the base frames; empty uses a default idle frame.
	Corpus []can.Frame
	// FlipBits is the number of wire bits flipped per injection (default 1).
	FlipBits int
	// Interval is the injection period (clamped to MinInterval).
	Interval time.Duration
}

// BitFuzzStats counts injection outcomes.
type BitFuzzStats struct {
	// Injected counts raw sequences queued.
	Injected uint64
	// Delivered counts sequences that still decoded as valid frames.
	Delivered uint64
	// ErrorFrames counts sequences that triggered protocol error handling.
	ErrorFrames uint64
	// Rejected counts injections refused at the port (bus-off, queue full).
	Rejected uint64
}

// BitFuzzer injects corrupted wire-bit sequences.
type BitFuzzer struct {
	sched *clock.Scheduler
	port  *bus.Port
	cfg   BitFuzzConfig
	rng   *rand.Rand

	stats BitFuzzStats
	timer *clock.Timer

	// Per-tick reuse: the encode scratch buffer (SendRaw copies the bits it
	// queues, so reusing it across ticks is safe) and the result callback,
	// bound once instead of closed over per injection.
	scratch  []byte
	onResult func(bus.RawResult)
}

// NewBitFuzzer creates a bit-level fuzzer on a port.
func NewBitFuzzer(sched *clock.Scheduler, port *bus.Port, cfg BitFuzzConfig) *BitFuzzer {
	if len(cfg.Corpus) == 0 {
		cfg.Corpus = []can.Frame{can.MustNew(0x100, []byte{0x55, 0xAA, 0x55, 0xAA})}
	}
	if cfg.FlipBits <= 0 {
		cfg.FlipBits = 1
	}
	if cfg.Interval < MinInterval {
		cfg.Interval = MinInterval
	}
	bf := &BitFuzzer{
		sched: sched,
		port:  port,
		cfg:   cfg,
	}
	bf.rng = rand.New(faults.SeedPCG(new(rand.PCG), cfg.Seed))
	bf.onResult = func(res bus.RawResult) {
		if res == bus.RawDelivered {
			bf.stats.Delivered++
		} else {
			bf.stats.ErrorFrames++
		}
	}
	return bf
}

// Stats returns a snapshot of the outcome counters.
func (bf *BitFuzzer) Stats() BitFuzzStats { return bf.stats }

// Start begins periodic injection.
func (bf *BitFuzzer) Start() {
	if bf.timer != nil {
		return
	}
	bf.timer = bf.sched.Every(bf.cfg.Interval, bf.injectOne)
}

// Stop halts injection.
func (bf *BitFuzzer) Stop() {
	if bf.timer != nil {
		bf.timer.Stop()
		bf.timer = nil
	}
}

// InjectOne corrupts and injects a single sequence immediately.
func (bf *BitFuzzer) InjectOne() { bf.injectOne() }

func (bf *BitFuzzer) injectOne() {
	base := bf.cfg.Corpus[bf.rng.IntN(len(bf.cfg.Corpus))]
	bf.scratch = can.AppendEncodeBits(bf.scratch[:0], base)
	bits := bf.scratch
	for i := 0; i < bf.cfg.FlipBits; i++ {
		bits[bf.rng.IntN(len(bits))] ^= 1
	}
	if err := bf.port.SendRaw(bits, bf.onResult); err != nil {
		bf.stats.Rejected++
		return
	}
	bf.stats.Injected++
}
