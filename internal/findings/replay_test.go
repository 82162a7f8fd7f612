package findings

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/target"
)

// watchdogRecord is a generator record: a random campaign aimed away from
// the unlock identifier, with a 2-second stuck-dominant jam that starves
// the bus until the dead-bus watchdog fires.
func watchdogRecord() Record {
	cfg := core.ConfigJSON{
		Seed:           1,
		IDMin:          0x300,
		IDMax:          0x400,
		IntervalMicros: 1000,
	}
	return Record{
		Oracle:         "watchdog",
		Detail:         "bus dead: no progress within 250ms",
		Target:         "bench",
		BCMCheck:       "byte",
		Chaos:          "seed=1;jam(at=100ms,for=2s)",
		Seed:           1,
		DeadlineMillis: 1500,
		Config:         &cfg,
		Mode:           "random",
		Sources:        []string{"canfuzz"},
	}
}

func TestReplayUnlockTriggerPasses(t *testing.T) {
	res := ReplayRecord(unlockRecord(), 2, Overrides{})
	if res.Outcome != OutcomePass {
		t.Fatalf("unlock trigger outcome = %s (observed %q %q, err %q), want pass",
			res.Outcome, res.ObservedOracle, res.ObservedDetail, res.Err)
	}
	if res.Fired != 2 || res.Attempts != 2 {
		t.Fatalf("fired %d/%d, want 2/2", res.Fired, res.Attempts)
	}
	if res.Features["bcm_unlocked"] != 1 {
		t.Fatalf("bcm_unlocked feature = %d, want 1 (features %v)", res.Features["bcm_unlocked"], res.Features)
	}
}

func TestReplayWatchdogGeneratorRecordPasses(t *testing.T) {
	res := ReplayRecord(watchdogRecord(), 2, Overrides{})
	if res.Outcome != OutcomePass {
		t.Fatalf("watchdog record outcome = %s (observed %q %q, err %q), want pass",
			res.Outcome, res.ObservedOracle, res.ObservedDetail, res.Err)
	}
}

func TestReplayBrokenTriggerFailsNotPanics(t *testing.T) {
	rec := unlockRecord()
	rec.Trigger = []string{"300#FF"} // frame that cannot reach the unlock path
	res := ReplayRecord(rec, 1, Overrides{})
	if res.Outcome != OutcomeFail {
		t.Fatalf("broken trigger outcome = %s, want fail", res.Outcome)
	}
}

func TestReplayUnknownTargetErrors(t *testing.T) {
	rec := unlockRecord()
	rec.Target = "toaster"
	res := ReplayRecord(rec, 1, Overrides{})
	if res.Outcome != OutcomeError || res.Err == "" {
		t.Fatalf("unknown target outcome = %s err=%q, want error", res.Outcome, res.Err)
	}
}

func TestRunSuiteByteIdenticalAcrossWorkers(t *testing.T) {
	broken := unlockRecord()
	broken.Trigger = []string{"300#FF"}
	recs := []Record{unlockRecord(), watchdogRecord(), broken}

	render := func(workers int) []byte {
		rep := RunSuite(recs, SuiteConfig{Workers: workers, Attempts: 2})
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	w1 := render(1)
	w4 := render(4)
	if !bytes.Equal(w1, w4) {
		t.Fatalf("suite report differs across worker counts:\nworkers=1:\n%s\nworkers=4:\n%s", w1, w4)
	}

	rep := RunSuite(recs, SuiteConfig{Workers: 4, Attempts: 2})
	if rep.Pass != 2 || rep.Fail != 1 || rep.OK() {
		t.Fatalf("suite summary pass=%d fail=%d ok=%v, want 2/1/false", rep.Pass, rep.Fail, rep.OK())
	}
}

func TestDiffSuitesReportsCheckModeDivergence(t *testing.T) {
	recs := []Record{unlockRecord()}
	a := RunSuite(recs, SuiteConfig{Attempts: 1})
	b := RunSuite(recs, SuiteConfig{Attempts: 1, Overrides: Overrides{BCMCheck: "length"}})

	divs := DiffSuites(a, b)
	if len(divs) == 0 {
		t.Fatal("no divergence between byte-only and byte+length parsers")
	}
	kinds := map[string]bool{}
	for _, d := range divs {
		kinds[d.Kind] = true
	}
	if !kinds[DivergeOnlyA] {
		t.Fatalf("want %s divergence, got %+v", DivergeOnlyA, divs)
	}
	// The one-byte unlock is a near-miss under the stricter parser, so the
	// reaction-feature vector must differ too (bcm_near_misses).
	if !kinds[DivergeFeatures] {
		t.Fatalf("want %s divergence, got %+v", DivergeFeatures, divs)
	}

	// Identical configurations must not diverge.
	if divs := DiffSuites(a, RunSuite(recs, SuiteConfig{Attempts: 1})); len(divs) != 0 {
		t.Fatalf("self-diff reported divergences: %+v", divs)
	}
}

// TestReplayWarmMatchesCold replays both golden records with
// three attempts twice: as shipped, where a reset-capable world is built
// once and reset in place between attempts, and cold, with every world's
// Reset hook stripped so each attempt builds afresh. The results must be
// identical, features included, and the bench trigger record must build
// exactly one world.
func TestReplayWarmMatchesCold(t *testing.T) {
	db, err := Open(filepath.Join("..", "..", "testdata", "regress"))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := db.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("golden database holds %d records, want 2", len(recs))
	}
	defer func() { buildWorld = target.Build }()
	replay := func(rec Record, cold bool) (FindingResult, int) {
		builds := 0
		buildWorld = func(spec target.Spec, cfg core.Config, o target.Options) (*target.Built, error) {
			builds++
			b, err := target.Build(spec, cfg, o)
			if err == nil && cold {
				b.World.Reset = nil
			}
			return b, err
		}
		return ReplayRecord(rec, 3, Overrides{}), builds
	}
	for _, rec := range recs {
		warm, warmBuilds := replay(rec, false)
		cold, coldBuilds := replay(rec, true)
		if !reflect.DeepEqual(warm, cold) {
			t.Fatalf("record %s: warm %+v\ncold %+v", rec.Key(), warm, cold)
		}
		if warm.Outcome != OutcomePass || coldBuilds != 3 {
			t.Fatalf("record %s: outcome %s, %d cold builds", rec.Key(), warm.Outcome, coldBuilds)
		}
		wantBuilds := 3 // a chaos-plan world has no Reset: every attempt builds
		if len(rec.Trigger) > 0 {
			wantBuilds = 1
		}
		if warmBuilds != wantBuilds {
			t.Fatalf("record %s: %d builds for 3 attempts, want %d", rec.Key(), warmBuilds, wantBuilds)
		}
	}
}
