package guided_test

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bcm"
	"repro/internal/core"
	"repro/internal/guided"
	"repro/internal/observatory"
	"repro/internal/target"
	"repro/internal/telemetry"
	"repro/internal/testbench"
)

// buildUnlock builds the Table V bench world through target.Build, the one
// constructor of bench fuzz worlds.
func buildUnlock(check bcm.CheckMode, cfg core.Config, o target.Options) (*testbench.UnlockExperiment, error) {
	b, err := target.Build(target.Spec{Target: "bench", Check: check, Stop: true}, cfg, o)
	if err != nil {
		return nil, err
	}
	return b.Unlock, nil
}

// guidedExp builds one guided unlock world; helper for the tests below.
func guidedExp(t *testing.T, check bcm.CheckMode, seed int64) *testbench.UnlockExperiment {
	t.Helper()
	exp, err := buildUnlock(check, core.Config{Seed: seed, Mode: core.ModeGuided}, target.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

func TestGuidedUnlockFindsFinding(t *testing.T) {
	exp := guidedExp(t, bcm.CheckByteOnly, 1)
	ttu, ok := exp.Run(10 * time.Minute)
	if !ok {
		t.Fatal("guided campaign never unlocked within 10 virtual minutes")
	}
	if ttu <= 0 {
		t.Fatalf("time-to-unlock = %v", ttu)
	}
	if exp.Engine.CorpusSize() == 0 {
		t.Fatal("corpus empty after a finding run")
	}
	if exp.Engine.NoveltyHits() == 0 {
		t.Fatal("no novelty recorded")
	}
	rep := exp.Campaign.BuildReport()
	if rep.Mode != "guided" {
		t.Fatalf("report mode = %q", rep.Mode)
	}
	if rep.CorpusSize != exp.Engine.CorpusSize() || rep.NoveltyHits != exp.Engine.NoveltyHits() {
		t.Fatalf("report corpus stats (%d,%d) != engine (%d,%d)",
			rep.CorpusSize, rep.NoveltyHits, exp.Engine.CorpusSize(), exp.Engine.NoveltyHits())
	}
}

func TestGuidedDeterministicAcrossRuns(t *testing.T) {
	run := func() (time.Duration, bool, []string, uint64) {
		exp := guidedExp(t, bcm.CheckByteAndLength, 42)
		ttu, ok := exp.Run(5 * time.Minute)
		return ttu, ok, exp.Engine.CorpusFrames(), exp.Engine.NoveltyHits()
	}
	t1, ok1, c1, n1 := run()
	t2, ok2, c2, n2 := run()
	if t1 != t2 || ok1 != ok2 || n1 != n2 {
		t.Fatalf("runs diverged: (%v,%v,%d) vs (%v,%v,%d)", t1, ok1, n1, t2, ok2, n2)
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Fatalf("corpora diverged:\n%v\n%v", c1, c2)
	}
}

// TestGuidedTelemetryGauges checks the guided series on the metrics
// plane: the engine publishes only to its introspection slot, and the
// observatory's fuzz_* gauges read that slot, so after a run they equal
// the engine's own corpus size and novelty-map bits.
func TestGuidedTelemetryGauges(t *testing.T) {
	tel := telemetry.New(0)
	intr := guided.NewIntrospection()
	observatory.New(observatory.Config{Fuzz: intr, Telemetry: tel})
	exp, err := buildUnlock(bcm.CheckByteOnly,
		core.Config{Seed: 3, Mode: core.ModeGuided}, target.Options{Introspection: intr})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := exp.Run(10 * time.Minute); !ok {
		t.Fatal("no finding")
	}
	var prom strings.Builder
	if err := tel.Registry.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int{
		"fuzz_corpus_size":      exp.Engine.CorpusSize(),
		"fuzz_novelty_bits_set": exp.Engine.NoveltyBits(),
	} {
		if want == 0 {
			t.Fatalf("engine %s is 0 after a finding run", name)
		}
		line := name + " " + strconv.Itoa(want) + "\n"
		if !strings.Contains(prom.String(), "\n"+line) {
			t.Errorf("exposition lacks %q:\n%s", line, prom.String())
		}
	}
}

// TestGuidedSeedCorpusSharing round-trips an evolved corpus through the
// file format into a second engine.
func TestGuidedSeedCorpusSharing(t *testing.T) {
	exp := guidedExp(t, bcm.CheckByteOnly, 5)
	if _, ok := exp.Run(10 * time.Minute); !ok {
		t.Fatal("no finding")
	}
	lines := exp.Engine.CorpusFrames()
	if len(lines) == 0 {
		t.Fatal("empty corpus")
	}
	var buf strings.Builder
	if err := guided.WriteCorpus(&buf, lines); err != nil {
		t.Fatal(err)
	}
	parsed, err := guided.ReadCorpus(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := guided.NewEngine(core.Config{Seed: 6, Mode: core.ModeGuided},
		guided.WithSeedFrames(parsed))
	if err != nil {
		t.Fatal(err)
	}
	if eng.CorpusSize() != len(lines) {
		t.Fatalf("seeded corpus size = %d, want %d", eng.CorpusSize(), len(lines))
	}
}
