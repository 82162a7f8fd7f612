package findings

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/can"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/guided"
	"repro/internal/target"
)

// Per-finding replay outcomes.
const (
	// OutcomePass: the original oracle fired on every replay attempt.
	OutcomePass = "pass"
	// OutcomeFail: the oracle fired on no attempt — the defect regressed
	// (was fixed, or the trigger no longer reaches it).
	OutcomeFail = "fail"
	// OutcomeFlaky: the oracle fired on some attempts but not all. Every
	// attempt replays the same seed: the first in a fresh world, later ones
	// in that world reset in place when it can reset. So flaky means real
	// nondeterminism in the stack, or a reset that does not restore the
	// as-built state — not seed variance.
	OutcomeFlaky = "flaky"
	// OutcomeError: the world could not be built or the record could not be
	// parsed — the record, not the target, is broken.
	OutcomeError = "error"
)

// Overrides alters the replay context relative to what a record stores —
// the lever behind `canregress diff`: replay the same corpus under a
// different BCM parser strictness, resilience policy or bus and compare.
type Overrides struct {
	// BCMCheck, when non-empty, replaces the record's bench parser mode.
	BCMCheck string `json:"bcmCheck,omitempty"`
	// Recovery, when non-nil, replaces the record's resilience setting.
	Recovery *bool `json:"recovery,omitempty"`
	// Bus, when non-empty, replaces the record's vehicle bus.
	Bus string `json:"bus,omitempty"`
}

// Label renders the overrides compactly for reports ("" when zero).
func (o Overrides) Label() string {
	var parts []string
	if o.BCMCheck != "" {
		parts = append(parts, "check="+o.BCMCheck)
	}
	if o.Recovery != nil {
		parts = append(parts, fmt.Sprintf("recovery=%v", *o.Recovery))
	}
	if o.Bus != "" {
		parts = append(parts, "bus="+o.Bus)
	}
	return strings.Join(parts, ",")
}

// ParseOverrides parses the comma-separated "check=length,recovery=true,
// bus=powertrain" form used by canregress diff.
func ParseOverrides(s string) (Overrides, error) {
	var o Overrides
	if s == "" {
		return o, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return o, fmt.Errorf("findings: override %q is not key=value", part)
		}
		switch k {
		case "check":
			if _, err := target.ParseCheckMode(v); err != nil {
				return o, err
			}
			o.BCMCheck = v
		case "recovery":
			switch v {
			case "true":
				t := true
				o.Recovery = &t
			case "false":
				f := false
				o.Recovery = &f
			default:
				return o, fmt.Errorf("findings: override recovery=%q (want true/false)", v)
			}
		case "bus":
			o.Bus = v
		default:
			return o, fmt.Errorf("findings: unknown override key %q (check, recovery, bus)", k)
		}
	}
	return o, nil
}

// FindingResult is the replay outcome for one record.
type FindingResult struct {
	// Key, Oracle, Target echo the record for standalone readability.
	Key    string `json:"key"`
	Oracle string `json:"oracle"`
	Target string `json:"target"`
	// Outcome classifies the replay (OutcomePass, ...).
	Outcome string `json:"outcome"`
	// Attempts and Fired count replays run and replays where the original
	// oracle fired.
	Attempts int `json:"attempts"`
	Fired    int `json:"fired"`
	// ObservedOracle and ObservedDetail describe what actually fired on the
	// last attempt ("" when nothing fired).
	ObservedOracle string `json:"observedOracle,omitempty"`
	ObservedDetail string `json:"observedDetail,omitempty"`
	// TimeToFinding is the virtual time the last firing attempt needed.
	TimeToFinding time.Duration `json:"timeToFindingNanos,omitempty"`
	// Features is the world's reaction-feature vector (the guided novelty
	// probes) sampled after the last attempt — the behavioural fingerprint
	// diff mode compares across configurations.
	Features map[string]uint64 `json:"features,omitempty"`
	// Err carries the build/parse error (OutcomeError only).
	Err string `json:"error,omitempty"`
}

// SuiteConfig configures a regression-suite run.
type SuiteConfig struct {
	// Workers bounds replay concurrency (<=0: 1). The report is
	// byte-identical at any worker count: results are keyed and ordered by
	// record key, and each replay is a pure function of its record.
	Workers int
	// Attempts is the replay count per record (<=0: 2). All attempts use
	// the record's own seed, so a flaky outcome indicts determinism, not
	// seed luck.
	Attempts int
	// Overrides alters the replay context for every record (diff mode).
	Overrides Overrides
}

// SuiteReport is the outcome of replaying a findings database.
type SuiteReport struct {
	Records   int             `json:"records"`
	Pass      int             `json:"pass"`
	Fail      int             `json:"fail"`
	Flaky     int             `json:"flaky"`
	Errors    int             `json:"errors"`
	Attempts  int             `json:"attempts"`
	Overrides string          `json:"overrides,omitempty"`
	Results   []FindingResult `json:"results"`
}

// OK reports whether the suite is green (flaky counts as green-with-noise;
// fail and error do not).
func (r *SuiteReport) OK() bool { return r.Fail == 0 && r.Errors == 0 }

// WriteJSON writes the report as indented JSON.
func (r *SuiteReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadSuiteReport decodes a saved suite report — the inverse of
// WriteJSON, used by canregress diff to compare against an archived run.
func ReadSuiteReport(r io.Reader) (*SuiteReport, error) {
	var rep SuiteReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// RunSuite replays every record and aggregates the outcomes. Workers pull
// record indices from a shared queue; results are collected by index and
// sorted by key, so the report bytes are independent of scheduling.
func RunSuite(recs []Record, cfg SuiteConfig) *SuiteReport {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 2
	}
	results := make([]FindingResult, len(recs))
	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers && w < len(recs); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				results[i] = ReplayRecord(recs[i], cfg.Attempts, cfg.Overrides)
			}
		}()
	}
	for i := range recs {
		indices <- i
	}
	close(indices)
	wg.Wait()

	sort.Slice(results, func(i, j int) bool { return results[i].Key < results[j].Key })
	rep := &SuiteReport{
		Records:   len(results),
		Attempts:  cfg.Attempts,
		Overrides: cfg.Overrides.Label(),
		Results:   results,
	}
	for _, res := range results {
		switch res.Outcome {
		case OutcomePass:
			rep.Pass++
		case OutcomeFail:
			rep.Fail++
		case OutcomeFlaky:
			rep.Flaky++
		case OutcomeError:
			rep.Errors++
		}
	}
	return rep
}

// ReplayRecord replays one record the given number of times and
// classifies the outcome. The attempts run through one fleet.WorldPool:
// the first on a freshly built world, later ones on that world reset in
// place when it can reset. A world that fails to build or panics is
// contained and classified as OutcomeError — a broken record must report,
// not crash the suite.
func ReplayRecord(rec Record, attempts int, ov Overrides) FindingResult {
	res := FindingResult{Key: rec.Key(), Oracle: rec.Oracle, Target: rec.Target}
	if attempts <= 0 {
		attempts = 1
	}
	rw, err := newReplayWorld(rec, ov)
	if err != nil {
		res.Attempts, res.Outcome, res.Err = 1, OutcomeError, err.Error()
		return res
	}
	var pool fleet.WorldPool
	for i := 0; i < attempts; i++ {
		tr := pool.RunTrial(fleet.TrialSpec{Seed: rw.cfg.Seed}, fleet.Config{MaxPerTrial: rw.deadline}, rw.factory)
		res.Attempts++
		switch tr.Status {
		case fleet.StatusPanic:
			tr.Err = "replay panicked: " + tr.PanicValue
			fallthrough
		case fleet.StatusError:
			res.Outcome, res.Err = OutcomeError, tr.Err
			return res
		}
		if rw.built.Injector != nil {
			rw.built.Injector.Stop()
		}
		res.ObservedOracle, res.ObservedDetail = tr.Oracle, tr.Detail
		res.Features = make(map[string]uint64, len(rw.built.Probes))
		for _, p := range rw.built.Probes {
			res.Features[p.Name] = p.Fn()
		}
		if tr.Status == fleet.StatusFinding && tr.Oracle == rec.Oracle {
			res.Fired++
			res.TimeToFinding = tr.TimeToFinding
		}
	}
	switch res.Fired {
	case res.Attempts:
		res.Outcome = OutcomePass
	case 0:
		res.Outcome = OutcomeFail
	default:
		res.Outcome = OutcomeFlaky
	}
	return res
}

// replayWorld is one record's replay setup: the world-builder inputs, the
// world factory (build, wrapped in the trigger playback for trigger
// records), the virtual deadline, and the last world built, whose probes
// give the feature vector.
type replayWorld struct {
	spec     target.Spec
	cfg      core.Config
	plan     *faults.Plan
	factory  fleet.TargetFactory
	deadline time.Duration
	built    *target.Built
}

// newReplayWorld maps a record (plus overrides) onto its replay setup. A
// trigger record replays its frames at the record's interval and settle; a
// generator record runs the generator until its stored deadline.
func newReplayWorld(rec Record, ov Overrides) (*replayWorld, error) {
	check, err := target.ParseCheckMode(cmp.Or(ov.BCMCheck, rec.BCMCheck))
	if err != nil {
		return nil, err
	}
	rw := &replayWorld{spec: target.Spec{Target: rec.Target, Bus: cmp.Or(ov.Bus, rec.Bus),
		Check: check, Stop: true, Recovery: rec.Recovery}}
	rw.factory = rw.build
	if ov.Recovery != nil {
		rw.spec.Recovery = *ov.Recovery
	}
	if rec.Config != nil {
		if rw.cfg, err = rec.Config.ToConfig(); err != nil {
			return nil, fmt.Errorf("record config: %w", err)
		}
	}
	rw.cfg.Seed = rec.Seed
	rw.cfg.Interval = max(rw.cfg.Interval, time.Duration(rec.IntervalMicros)*time.Microsecond, core.MinInterval)
	if rec.Chaos != "" {
		plan, err := faults.ParsePlan(rec.Chaos)
		if err != nil {
			return nil, fmt.Errorf("record chaos plan: %w", err)
		}
		rw.plan = &plan
	}
	if len(rec.Trigger) == 0 {
		rw.deadline = time.Duration(rec.DeadlineMillis) * time.Millisecond
		if rw.deadline <= 0 {
			rw.deadline = time.Second
		}
		return rw, nil
	}
	replay := &guided.Replay{Interval: rw.cfg.Interval, Settle: guided.ReplaySettle}
	if rec.SettleMillis > 0 {
		replay.Settle = time.Duration(rec.SettleMillis) * time.Millisecond
	}
	for _, line := range rec.Trigger {
		f, err := can.ParseFrame(line)
		if err != nil {
			return nil, fmt.Errorf("trigger frame: %w", err)
		}
		replay.Frames = append(replay.Frames, f)
	}
	rw.factory = replay.Factory(rw.build)
	rw.deadline = replay.Deadline()
	return rw, nil
}

// buildWorld is the world constructor replays use; tests wrap it to count
// builds or to force the cold path.
var buildWorld = target.Build

// build is the record's world factory: it builds the world and starts the
// chaos plan.
func (rw *replayWorld) build(fleet.TrialSpec) (*fleet.World, error) {
	built, err := buildWorld(rw.spec, rw.cfg, target.Options{Plan: rw.plan})
	if err != nil {
		return nil, fmt.Errorf("build world: %w", err)
	}
	if built.Injector != nil {
		if err := built.Injector.Start(); err != nil {
			return nil, fmt.Errorf("chaos plan: %w", err)
		}
	}
	rw.built = built
	return built.World, nil
}
