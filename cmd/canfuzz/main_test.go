package main

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/findings"
)

func TestRunBenchTargeted(t *testing.T) {
	// Targeted at the command id, a hit lands within a few virtual minutes.
	err := run([]string{"-target", "bench", "-ids", "215", "-dur", "30m", "-seed", "2"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunClusterTarget(t *testing.T) {
	if err := run([]string{"-target", "cluster", "-dur", "2m", "-seed", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunVehicleTarget(t *testing.T) {
	if err := run([]string{"-target", "vehicle", "-dur", "5s", "-seed", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-target", "nope"},
		{"-target", "bench", "-bcm-check", "nope"},
		{"-target", "bench", "-ids", "ZZZ"},
		{"-target", "bench", "-ids", "FFFF"},
		{"-target", "bench", "-len-min", "9"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunBitsMode(t *testing.T) {
	if err := run([]string{"-mode", "bits", "-dur", "2s"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSweepMode(t *testing.T) {
	if err := run([]string{"-target", "bench", "-mode", "sweep", "-sweep-len", "0", "-dur", "3s"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMutateModeWithCorpus(t *testing.T) {
	// The paper's recommended workflow: capture traffic, then mutate
	// "around known message ids". Build a corpus file containing the
	// unlock command and let single-bit mutation rediscover unlocking.
	dir := t.TempDir()
	corpus := dir + "/corpus.log"
	log := "(0.001000) body0 215#105F010000012000\n" // the LOCK command (byte0 0x10)
	if err := os.WriteFile(corpus, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	// Lock (0x10) and unlock (0x20) differ in two bits of byte 0, so
	// two-bit mutation can cross between them.
	err := run([]string{"-target", "bench", "-mode", "mutate", "-corpus", corpus,
		"-mutate-bits", "2", "-dur", "30m", "-seed", "4"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunModeErrors(t *testing.T) {
	if err := run([]string{"-mode", "nope"}); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if err := run([]string{"-mode", "mutate"}); err == nil {
		t.Fatal("mutate without corpus accepted")
	}
	if err := run([]string{"-mode", "mutate", "-corpus", "/nonexistent"}); err == nil {
		t.Fatal("missing corpus file accepted")
	}
	dir := t.TempDir()
	empty := dir + "/empty.log"
	os.WriteFile(empty, []byte("# nothing\n"), 0o644)
	if err := run([]string{"-mode", "mutate", "-corpus", empty}); err == nil {
		t.Fatal("empty corpus accepted")
	}
	bad := dir + "/bad.log"
	os.WriteFile(bad, []byte("garbage\n"), 0o644)
	if err := run([]string{"-mode", "mutate", "-corpus", bad}); err == nil {
		t.Fatal("unparseable corpus accepted")
	}
}

func TestRunWithConfigFileAndJSONReport(t *testing.T) {
	dir := t.TempDir()
	cfgFile := dir + "/campaign.json"
	doc := `{"seed": 2, "targetIds": [533], "lenMin": 1, "lenMax": 7}`
	if err := os.WriteFile(cfgFile, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-target", "bench", "-config", cfgFile, "-json", "-dur", "30m"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunConfigFileErrors(t *testing.T) {
	if err := run([]string{"-config", "/nonexistent.json"}); err == nil {
		t.Fatal("missing config accepted")
	}
	dir := t.TempDir()
	bad := dir + "/bad.json"
	os.WriteFile(bad, []byte(`{"mode":"explode"}`), 0o644)
	if err := run([]string{"-config", bad}); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestRunFleetMode(t *testing.T) {
	// Targeted fleet: every trial unlocks within virtual seconds.
	err := run([]string{"-target", "bench", "-ids", "215", "-trials", "6",
		"-workers", "3", "-dur", "30m", "-seed", "5"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunFleetModeJSON(t *testing.T) {
	err := run([]string{"-target", "bench", "-ids", "215", "-trials", "3",
		"-workers", "2", "-dur", "30m", "-seed", "5", "-json"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunFleetFailFast(t *testing.T) {
	err := run([]string{"-target", "bench", "-ids", "215", "-trials", "16",
		"-workers", "2", "-dur", "30m", "-seed", "5", "-fail-fast"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunFlagValidation(t *testing.T) {
	corpus := t.TempDir() + "/seed.corpus"
	if err := os.WriteFile(corpus, []byte("215#20\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"-trials", "0"},
		{"-trials", "-3"},
		{"-workers", "0"},
		{"-workers", "-1"},
		{"-interval", "100us"},
		{"-trials", "2", "-chaos", "seed=1;jam(at=1s)"},
		{"-trials", "2", "-trace", "/tmp/t.json"},
		{"-trials", "2", "-mode", "bits"},
		{"-trials", "2", "-minimize"},
		{"-events", "/tmp/e.jsonl"},
		{"-pprof"},
		{"-log-level", "loud"},
		{"-log-format", "xml"},
		{"-minimize", "-chaos", "seed=1;jam(at=1s)"},
		{"-mode", "bits", "-minimize"},
		{"-mode", "random", "-corpus-out", "/tmp/c.corpus"},
		{"-mode", "random", "-corpus", corpus},
		{"-mode", "sweep", "-corpus", corpus},
		{"-mode", "guided", "-corpus", "/nonexistent.corpus"},
		{"-trial-timeout", "-1s"},
		{"-trial-timeout", "1s"},
		// The single-campaign coordinator is gone; canfuzzd serves every
		// distributed campaign.
		{"-coordinator", ":0", "-trials", "2", "-events", "/tmp/j.jsonl"},
		{"-resume"},
		{"-lease-ttl", "5s"},
		{"-worker", "http://x", "-trials", "3"},
		{"-worker", "http://x", "-seed", "7"},
		{"-submit", "http://x", "-trials", "2", "-priority", "0"},
		{"-submit", "http://x", "-trials", "2", "-max-inflight", "-1"},
		{"-submit", "http://x", "-trials", "2", "-minimize"},
		{"-submit", "http://x", "-trials", "2", "-metrics", "localhost:0"},
		{"-submit", "http://127.0.0.1:1", "-trials", "2", "-findings-db", "/tmp/db"},
		{"-submit", "http://127.0.0.1:1", "-trials", "2", "-fail-fast"},
		{"-submit", "http://127.0.0.1:1", "-trials", "2", "-mode", "guided", "-corpus-out", "/tmp/c.corpus"},
		{"-watch", "-trials", "2"},
		{"-worker", "http://x", "-priority", "2"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunGuidedMode(t *testing.T) {
	// Unguided-range guided fuzzing on the bench: response feedback steers
	// the corpus onto the command id, so the unlock lands well inside the
	// budget without -ids hints.
	dir := t.TempDir()
	corpusOut := dir + "/evolved.corpus"
	err := run([]string{"-target", "bench", "-mode", "guided", "-dur", "30m",
		"-seed", "3", "-corpus-out", corpusOut})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(corpusOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("evolved corpus file is empty")
	}
	// The evolved corpus must feed back in as a seed corpus.
	err = run([]string{"-target", "bench", "-mode", "guided", "-dur", "30m",
		"-seed", "8", "-corpus", corpusOut})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunGuidedConfigFile(t *testing.T) {
	dir := t.TempDir()
	cfgFile := dir + "/guided.json"
	doc := `{"seed": 3, "mode": "guided"}`
	if err := os.WriteFile(cfgFile, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-target", "bench", "-config", cfgFile, "-json", "-dur", "30m"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunGuidedFleetMergedCorpus(t *testing.T) {
	dir := t.TempDir()
	merged := dir + "/merged.corpus"
	err := run([]string{"-target", "bench", "-mode", "guided", "-trials", "3",
		"-workers", "2", "-dur", "30m", "-seed", "11", "-corpus-out", merged})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("fleet merged corpus file is empty")
	}
}

func TestRunMinimizeEmitsReplayableLog(t *testing.T) {
	// The acceptance path: canfuzz -minimize writes a reproducer log that
	// cmd/canreplay can replay to the same finding. The replay itself is
	// exercised in internal/guided; here we check the emitted artifact.
	dir := t.TempDir()
	repro := dir + "/repro.log"
	err := run([]string{"-target", "bench", "-mode", "guided", "-dur", "30m",
		"-seed", "3", "-minimize-out", repro, "-json"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(repro)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	if lines == 0 || lines > 8 {
		t.Fatalf("reproducer has %d frames, want 1..8", lines)
	}
	if !strings.Contains(string(data), "215#") {
		t.Fatalf("reproducer does not touch the command id:\n%s", data)
	}
}

func TestRunMinimizeNoFindingIsNotAnError(t *testing.T) {
	// A run that finds nothing has nothing to minimize; that is a clean
	// exit, not a failure.
	err := run([]string{"-target", "bench", "-mode", "random", "-dur", "2s",
		"-seed", "1", "-minimize"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunMinimizeNoReproKeepsRawFinding(t *testing.T) {
	// The vehicle's signal-range finding at seed 2 depends on state older
	// than its trigger window, so neither the minimizer nor a replay of the
	// window reproduces it. That is not a failed run: no reproducer file is
	// written, and the finding lands in the database as a generator record
	// (seed + deadline) that replays, with or without -minimize.
	for _, minimize := range []bool{true, false} {
		dir := t.TempDir()
		db, out := dir+"/db", dir+"/repro.log"
		args := []string{"-target", "vehicle", "-dur", "10m", "-seed", "2", "-findings-db", db}
		if minimize {
			args = append(args, "-minimize-out", out)
		}
		if err := run(args); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Fatalf("reproducer file written for an unreproducible finding (stat err %v)", err)
		}
		fdb, err := findings.Open(db)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := fdb.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || recs[0].Oracle != "signal-range" {
			t.Fatalf("minimize=%v: findings db holds %+v, want one signal-range record", minimize, recs)
		}
		rec := recs[0]
		if len(rec.Trigger) != 0 || rec.Config == nil || rec.Seed != 2 || rec.DeadlineMillis == 0 {
			t.Fatalf("minimize=%v: record %+v, want a generator record (seed 2, config, deadline)", minimize, rec)
		}
		if res := findings.ReplayRecord(rec, 2, findings.Overrides{}); res.Outcome != findings.OutcomePass {
			t.Fatalf("minimize=%v: stored record replays %+v, want pass", minimize, res)
		}
	}

	// The same finding from a fleet (-trials 4) goes through the same
	// replay-or-fallback constructor: every stored record replays, and the
	// database bytes do not depend on the worker count.
	var dbs [2]map[string][]byte
	for i, workers := range []string{"1", "2"} {
		db := t.TempDir() + "/db"
		if err := run([]string{"-target", "vehicle", "-trials", "4", "-workers", workers,
			"-dur", "10m", "-seed", "2", "-findings-db", db}); err != nil {
			t.Fatal(err)
		}
		fdb, err := findings.Open(db)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := fdb.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			t.Fatalf("workers=%s: fleet stored no records", workers)
		}
		for _, rec := range recs {
			if res := findings.ReplayRecord(rec, 2, findings.Overrides{}); res.Outcome != findings.OutcomePass {
				t.Fatalf("workers=%s: fleet record %s replays %+v, want pass", workers, rec.Key(), res)
			}
		}
		dbs[i] = readDir(t, db)
	}
	if !reflect.DeepEqual(dbs[0], dbs[1]) {
		t.Fatalf("fleet findings db differs between -workers 1 and -workers 2:\n%v\n%v", dbs[0], dbs[1])
	}
}

// readDir returns every file of dir by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range ents {
		b, err := os.ReadFile(dir + "/" + e.Name())
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

func TestRunFleetEventsLog(t *testing.T) {
	// The acceptance run: a fleet with -events streams schema-valid JSONL
	// whose *sorted* content is byte-identical across worker counts.
	dir := t.TempDir()
	runWith := func(workers int, file string) []string {
		t.Helper()
		path := dir + "/" + file
		err := run([]string{"-target", "bench", "-ids", "215", "-trials", "8",
			"-workers", strconv.Itoa(workers), "-dur", "30m", "-seed", "9",
			"-events", path, "-metrics", "localhost:0"})
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
		sort.Strings(lines)
		return lines
	}
	seq := runWith(1, "seq.jsonl")
	par := runWith(runtime.NumCPU(), "par.jsonl")
	if len(seq) != len(par) {
		t.Fatalf("event counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("sorted event logs differ at line %d:\nseq: %s\npar: %s", i, seq[i], par[i])
		}
	}
	starts := 0
	for _, line := range seq {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
		if ev["type"] == "trial_start" {
			starts++
		}
	}
	if starts != 8 {
		t.Fatalf("got %d trial_start events, want 8", starts)
	}
}
