package guided_test

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bcm"
	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/guided"
	"repro/internal/observatory"
	"repro/internal/target"
	"repro/internal/telemetry"
)

// guidedWorld builds one guided Table V bench world through target.Build
// and returns it with its engine, the campaign's frame source.
func guidedWorld(t *testing.T, check bcm.CheckMode, cfg core.Config, o target.Options) (*fleet.World, *guided.Engine) {
	t.Helper()
	cfg.Mode = core.ModeGuided
	b, err := target.Build(target.Spec{Target: "bench", Check: check, Stop: true}, cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	return b.World, b.World.Campaign.FrameSource().(*guided.Engine)
}

func TestGuidedUnlockFindsFinding(t *testing.T) {
	w, eng := guidedWorld(t, bcm.CheckByteOnly, core.Config{Seed: 1}, target.Options{})
	finding, ok := w.Campaign.RunUntilFinding(10 * time.Minute)
	if !ok {
		t.Fatal("guided campaign never unlocked within 10 virtual minutes")
	}
	if finding.Elapsed <= 0 {
		t.Fatalf("time-to-unlock = %v", finding.Elapsed)
	}
	if eng.CorpusSize() == 0 {
		t.Fatal("corpus empty after a finding run")
	}
	if eng.NoveltyHits() == 0 {
		t.Fatal("no novelty recorded")
	}
	rep := w.Campaign.BuildReport()
	if rep.Mode != "guided" {
		t.Fatalf("report mode = %q", rep.Mode)
	}
	if rep.CorpusSize != eng.CorpusSize() || rep.NoveltyHits != eng.NoveltyHits() {
		t.Fatalf("report corpus stats (%d,%d) != engine (%d,%d)",
			rep.CorpusSize, rep.NoveltyHits, eng.CorpusSize(), eng.NoveltyHits())
	}
}

func TestGuidedDeterministicAcrossRuns(t *testing.T) {
	run := func() (time.Duration, bool, []string, uint64) {
		w, eng := guidedWorld(t, bcm.CheckByteAndLength, core.Config{Seed: 42}, target.Options{})
		finding, ok := w.Campaign.RunUntilFinding(5 * time.Minute)
		return finding.Elapsed, ok, eng.CorpusFrames(), eng.NoveltyHits()
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
	w, eng := guidedWorld(t, bcm.CheckByteOnly, core.Config{Seed: 3}, target.Options{Introspection: intr})
	if _, ok := w.Campaign.RunUntilFinding(10 * time.Minute); !ok {
		t.Fatal("no finding")
	}
	var prom strings.Builder
	if err := tel.Registry.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int{
		"fuzz_corpus_size":      eng.CorpusSize(),
		"fuzz_novelty_bits_set": eng.NoveltyBits(),
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
// file format and the config corpus into a second engine.
func TestGuidedSeedCorpusSharing(t *testing.T) {
	w, eng := guidedWorld(t, bcm.CheckByteOnly, core.Config{Seed: 5}, target.Options{})
	if _, ok := w.Campaign.RunUntilFinding(10 * time.Minute); !ok {
		t.Fatal("no finding")
	}
	lines := eng.CorpusFrames()
	if len(lines) == 0 {
		t.Fatal("empty corpus")
	}
	var buf strings.Builder
	if err := guided.WriteCorpus(&buf, lines); err != nil {
		t.Fatal(err)
	}
	parsed, err := capture.ReadFrames(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := guided.NewEngine(core.Config{Seed: 6, Mode: core.ModeGuided, Corpus: parsed})
	if err != nil {
		t.Fatal(err)
	}
	if seeded.CorpusSize() != len(lines) {
		t.Fatalf("seeded corpus size = %d, want %d", seeded.CorpusSize(), len(lines))
	}
}
