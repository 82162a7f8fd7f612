package core

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/can"
)

// Campaign reporting. The paper's §I essence list ends with "fuzz testing
// is automated for efficiency" — automation needs machine-readable
// results. Report is the JSON artefact a CI pipeline archives per
// campaign: the effective configuration, throughput and coverage
// statistics, the Fig 5 integrity check, and every finding with the
// frames that preceded it.

// Report is a serialisable campaign summary.
type Report struct {
	// Seed is the campaign seed.
	Seed int64 `json:"seed"`
	// Mode is the generation strategy name.
	Mode string `json:"mode"`
	// SpaceSize is the configured frame space (MaxUint64 when saturated).
	SpaceSize uint64 `json:"spaceSize"`
	// IntervalMicros is the transmission period in microseconds.
	IntervalMicros int64 `json:"intervalMicros"`

	// FramesSent and SendErrors are transmission counters.
	FramesSent uint64 `json:"framesSent"`
	SendErrors uint64 `json:"sendErrors"`
	// SendErrorsByCause breaks SendErrors down by rejection cause
	// (queue-full, bus-off, detached, other). Empty when no sends failed.
	SendErrorsByCause map[string]uint64 `json:"sendErrorsByCause,omitempty"`
	// DistinctIDs is the identifier-coverage numerator.
	DistinctIDs int `json:"distinctIds"`
	// OverallByteMean is the Fig 5 integrity statistic (~127.5 when healthy).
	OverallByteMean float64 `json:"overallByteMean"`
	// ByteMeanSpread is max-min of the per-position means.
	ByteMeanSpread float64 `json:"byteMeanSpread"`

	// CorpusSize and NoveltyHits summarise guided-mode feedback: the number
	// of corpus entries the feedback engine retained and the number of sends
	// credited with novel target behaviour. Zero (omitted) outside guided
	// campaigns.
	CorpusSize  int    `json:"corpusSize,omitempty"`
	NoveltyHits uint64 `json:"noveltyHits,omitempty"`
	// Minimized holds the minimizer's reproducer for the first finding, when
	// minimization was run (cmd/canfuzz -minimize).
	Minimized *MinimizedTrigger `json:"minimized,omitempty"`

	// Resilience summarises the graceful-degradation counters (retries,
	// watchdog activity, fuzzer-port bus-off cycles). Nil when the campaign
	// ran without a resilience policy.
	Resilience *ResilienceReport `json:"resilience,omitempty"`
	// FaultsInjected counts injected faults by kind (see internal/faults).
	// Empty when no fault plan was attached.
	FaultsInjected map[string]uint64 `json:"faultsInjected,omitempty"`

	// Findings lists oracle firings in order.
	Findings []ReportFinding `json:"findings"`
}

// ReportFinding is one finding in serialisable form.
type ReportFinding struct {
	// Oracle names the oracle that fired.
	Oracle string `json:"oracle"`
	// Detail describes the detection.
	Detail string `json:"detail"`
	// ElapsedMillis is the campaign runtime at firing, in milliseconds.
	ElapsedMillis int64 `json:"elapsedMillis"`
	// FramesSent is the frame count at firing.
	FramesSent uint64 `json:"framesSent"`
	// RecentFrames holds the preceding fuzz frames in "ID LEN DATA" form.
	RecentFrames []string `json:"recentFrames"`
}

// MinimizedTrigger is a minimal reproducer for a finding: the shortest
// frame sequence (in corpus "ID#HEXDATA" form, transmission order) the
// minimizer could confirm still trips the same oracle.
type MinimizedTrigger struct {
	// Oracle and Detail identify the finding reproduced.
	Oracle string `json:"oracle"`
	Detail string `json:"detail,omitempty"`
	// OriginalFrames is the trigger-window length before minimization.
	OriginalFrames int `json:"originalFrames"`
	// Frames is the minimized sequence as "ID#HEXDATA" strings.
	Frames []string `json:"frames"`
	// Executions counts fresh-world replays the minimizer spent.
	Executions int `json:"executions"`
}

// CorpusStats is implemented by frame sources that evolve a corpus
// (guided.Engine); BuildReport embeds the stats when the campaign's source
// provides them.
type CorpusStats interface {
	CorpusSize() int
	NoveltyHits() uint64
}

// BuildReport snapshots a campaign into a Report.
func (c *Campaign) BuildReport() Report {
	cfg := c.gen.Config()
	r := Report{
		Seed:            cfg.Seed,
		Mode:            cfg.Mode.String(),
		SpaceSize:       cfg.SpaceSize(),
		IntervalMicros:  int64(cfg.Interval / time.Microsecond),
		FramesSent:      c.framesSent,
		SendErrors:      c.sendErrors,
		DistinctIDs:     c.mon.DistinctIDsSent(),
		OverallByteMean: c.mon.SentMeans().OverallMean(),
		ByteMeanSpread:  c.mon.SentMeans().Spread(),
	}
	if m := c.SendErrorsByCause(); len(m) > 0 {
		r.SendErrorsByCause = m
	}
	if cs, ok := c.src.(CorpusStats); ok {
		r.CorpusSize = cs.CorpusSize()
		r.NoveltyHits = cs.NoveltyHits()
	}
	if c.res != nil {
		ps := c.port.Stats()
		r.Resilience = &ResilienceReport{
			Retries:          c.res.retries,
			RetriesExhausted: c.res.retriesExhausted,
			WatchdogFires:    c.res.watchdogFires,
			PortBusOffs:      ps.BusOffs,
			PortRecoveries:   ps.Recoveries,
		}
	}
	if c.faultCounts != nil {
		if m := c.faultCounts(); len(m) > 0 {
			r.FaultsInjected = make(map[string]uint64, len(m))
			for k, v := range m {
				r.FaultsInjected[k] = v
			}
		}
	}
	for _, f := range c.findings {
		rf := ReportFinding{
			Oracle:        f.Verdict.Oracle,
			Detail:        f.Verdict.Detail,
			ElapsedMillis: int64(f.Elapsed / time.Millisecond),
			FramesSent:    f.FramesSent,
		}
		for _, fr := range f.Recent {
			rf.RecentFrames = append(rf.RecentFrames, fr.String())
		}
		r.Findings = append(r.Findings, rf)
	}
	return r
}

// WriteJSON writes the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ConfigJSON mirrors Config for file-based campaign configuration
// (cmd/canfuzz -config). It exists so the JSON schema stays stable and
// documented even if Config grows internal fields.
type ConfigJSON struct {
	// Seed seeds the campaign.
	Seed int64 `json:"seed"`
	// Mode is "random", "mutate", "sweep" or "guided" (empty = random).
	Mode string `json:"mode,omitempty"`
	// IDMin and IDMax bound the identifier range.
	IDMin uint16 `json:"idMin,omitempty"`
	IDMax uint16 `json:"idMax,omitempty"`
	// TargetIDs lists hex-free decimal identifiers for targeted fuzzing.
	TargetIDs []uint16 `json:"targetIds,omitempty"`
	// LenMin and LenMax bound the payload length.
	LenMin int `json:"lenMin,omitempty"`
	LenMax int `json:"lenMax,omitempty"`
	// ByteMin and ByteMax bound each payload byte.
	ByteMin int `json:"byteMin,omitempty"`
	ByteMax int `json:"byteMax,omitempty"`
	// IntervalMicros is the transmission period in microseconds.
	IntervalMicros int64 `json:"intervalMicros,omitempty"`
	// MutateBits is the flip count for mutate mode.
	MutateBits int `json:"mutateBits,omitempty"`
	// MutateID includes the identifier in the mutable region.
	MutateID bool `json:"mutateId,omitempty"`
	// SweepLen fixes the sweep payload length.
	SweepLen int `json:"sweepLen,omitempty"`
	// Corpus holds mutate- and guided-mode seed frames in the can.ParseFrame
	// text form ("ID#HEXDATA", remote frames "ID#R<dlc>").
	Corpus []string `json:"corpus,omitempty"`
}

// ToJSON converts a Config to its wire form — the inverse of ToConfig, up
// to defaulting: a zero Mode stays the empty string (ToConfig reads both
// as random), and corpus frames render in the can.AppendFrame text form.
// The distributed campaign service ships worker configuration through it,
// so a leased trial's generator is built from exactly the bytes the
// service validated.
func (c Config) ToJSON() ConfigJSON {
	cj := ConfigJSON{
		Seed:           c.Seed,
		IDMin:          uint16(c.IDMin),
		IDMax:          uint16(c.IDMax),
		LenMin:         c.LenMin,
		LenMax:         c.LenMax,
		ByteMin:        c.ByteMin,
		ByteMax:        c.ByteMax,
		IntervalMicros: int64(c.Interval / time.Microsecond),
		MutateBits:     c.MutateBits,
		MutateID:       c.MutateID,
		SweepLen:       c.SweepLen,
	}
	if c.Mode != 0 {
		cj.Mode = c.Mode.String()
	}
	for _, id := range c.TargetIDs {
		cj.TargetIDs = append(cj.TargetIDs, uint16(id))
	}
	for _, f := range c.Corpus {
		cj.Corpus = append(cj.Corpus, string(can.AppendFrame(nil, f)))
	}
	return cj
}

// ParseConfigJSON reads a ConfigJSON document and converts it to a Config.
func ParseConfigJSON(r io.Reader) (Config, error) {
	var cj ConfigJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cj); err != nil {
		return Config{}, err
	}
	return cj.ToConfig()
}

// ToConfig converts the JSON form to a Config, parsing corpus frames.
func (cj ConfigJSON) ToConfig() (Config, error) {
	cfg := Config{
		Seed:       cj.Seed,
		IDMin:      can.ID(cj.IDMin),
		IDMax:      can.ID(cj.IDMax),
		LenMin:     cj.LenMin,
		LenMax:     cj.LenMax,
		ByteMin:    cj.ByteMin,
		ByteMax:    cj.ByteMax,
		Interval:   time.Duration(cj.IntervalMicros) * time.Microsecond,
		MutateBits: cj.MutateBits,
		MutateID:   cj.MutateID,
		SweepLen:   cj.SweepLen,
	}
	switch cj.Mode {
	case "", "random":
		cfg.Mode = ModeRandom
	case "mutate":
		cfg.Mode = ModeMutate
	case "sweep":
		cfg.Mode = ModeSweep
	case "guided":
		cfg.Mode = ModeGuided
	default:
		return cfg, fmt.Errorf("core: unknown mode %q", cj.Mode)
	}
	for _, id := range cj.TargetIDs {
		cfg.TargetIDs = append(cfg.TargetIDs, can.ID(id))
	}
	for _, s := range cj.Corpus {
		f, err := can.ParseFrame(s)
		if err != nil {
			return cfg, fmt.Errorf("core: corpus: %w", err)
		}
		cfg.Corpus = append(cfg.Corpus, f)
	}
	// Validate eagerly so config errors surface at load time.
	if _, err := NewGenerator(cfg); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// ParseCorpusFrame parses a data frame in the corpus "ID#HEXDATA" form
// (see can.ParseFrame); remote frames are rejected.
func ParseCorpusFrame(s string) (can.Frame, error) {
	f, err := can.ParseFrame(s)
	if err == nil && f.Remote {
		err = fmt.Errorf("core: corpus frame %q is a remote frame", s)
	}
	return f, err
}
