package core

import (
	"math/rand/v2"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/clock"
	"repro/internal/faults"
)

// CAN FD fuzzing — the second half of the paper's §VII FD future-work
// item: once the substrate speaks FD, the fuzz technique transfers
// directly. FDFuzzConfig mirrors the classic Table III parameter space
// with FD's payload sizes.

// FDFuzzConfig tunes an FDFuzzer.
type FDFuzzConfig struct {
	// Seed makes the run reproducible.
	Seed int64
	// IDMin and IDMax bound the identifier range (defaults: full space).
	IDMin, IDMax can.ID
	// TargetIDs restricts identifiers to a list when non-empty.
	TargetIDs []can.ID
	// Sizes restricts payload sizes to the given FD-representable values;
	// empty uses all sixteen DLC sizes.
	Sizes []int
	// BRSProbability is the chance a frame requests bit-rate switching,
	// in percent (default 50).
	BRSProbability int
	// Interval is the injection period (clamped to MinInterval).
	Interval time.Duration
}

// FDFuzzer generates and transmits random CAN FD frames.
type FDFuzzer struct {
	sched *clock.Scheduler
	port  *bus.Port
	cfg   FDFuzzConfig
	pcg   *rand.PCG
	rng   *rand.Rand

	sent   uint64
	errors uint64
	timer  *clock.Timer
}

// NewFDFuzzer creates an FD fuzzer on a port.
func NewFDFuzzer(sched *clock.Scheduler, port *bus.Port, cfg FDFuzzConfig) (*FDFuzzer, error) {
	if cfg.IDMax == 0 {
		cfg.IDMax = can.MaxID
	}
	if cfg.IDMin > cfg.IDMax || cfg.IDMax > can.MaxID {
		return nil, ErrIDRange
	}
	for _, id := range cfg.TargetIDs {
		if !id.Valid() {
			return nil, ErrIDRange
		}
	}
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 20, 24, 32, 48, 64}
	}
	for _, n := range cfg.Sizes {
		if _, err := can.FDLengthToDLC(n); err != nil {
			return nil, err
		}
	}
	if cfg.BRSProbability == 0 {
		cfg.BRSProbability = 50
	}
	if cfg.Interval < MinInterval {
		cfg.Interval = MinInterval
	}
	f := &FDFuzzer{sched: sched, port: port, cfg: cfg, pcg: faults.SeedPCG(new(rand.PCG), cfg.Seed)}
	f.rng = rand.New(f.pcg)
	return f, nil
}

// Sent returns the number of frames transmitted.
func (f *FDFuzzer) Sent() uint64 { return f.sent }

// SendErrors returns the number of rejected transmissions.
func (f *FDFuzzer) SendErrors() uint64 { return f.errors }

// Next generates the next random FD frame without sending it.
func (f *FDFuzzer) Next() can.FDFrame {
	var id can.ID
	if n := len(f.cfg.TargetIDs); n > 0 {
		id = f.cfg.TargetIDs[f.rng.IntN(n)]
	} else {
		id = f.cfg.IDMin + can.ID(f.rng.IntN(int(f.cfg.IDMax-f.cfg.IDMin)+1))
	}
	size := f.cfg.Sizes[f.rng.IntN(len(f.cfg.Sizes))]
	data := make([]byte, size)
	fillUniform(f.pcg, data)
	brs := f.rng.IntN(100) < f.cfg.BRSProbability
	frame, err := can.NewFD(id, data, brs)
	if err != nil {
		// Unreachable: sizes and ids are pre-validated.
		panic(err)
	}
	return frame
}

// Start begins periodic transmission.
func (f *FDFuzzer) Start() {
	if f.timer != nil {
		return
	}
	f.timer = f.sched.Every(f.cfg.Interval, f.sendOne)
}

// Stop halts transmission.
func (f *FDFuzzer) Stop() {
	if f.timer != nil {
		f.timer.Stop()
		f.timer = nil
	}
}

func (f *FDFuzzer) sendOne() {
	if err := f.port.SendFD(f.Next()); err != nil {
		f.errors++
		return
	}
	f.sent++
}
