package guided_test

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/bcm"
	"repro/internal/can"
	"repro/internal/capture"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/guided"
	"repro/internal/target"
	"repro/internal/testbench"
)

// benchFactory builds a plain (blind-fuzzer) unlock world; the minimizer
// replaces its frame source anyway, so the generator never runs.
func benchFactory(check bcm.CheckMode) fleet.TargetFactory {
	return func(spec fleet.TrialSpec) (*fleet.World, error) {
		b, err := target.Build(target.Spec{Target: "bench", Check: check, Stop: true},
			core.Config{Seed: spec.Seed}, target.Options{})
		if err != nil {
			return nil, err
		}
		return &fleet.World{Sched: b.World.Sched, Campaign: b.World.Campaign}, nil
	}
}

// guidedFactory builds a guided unlock world exposing its corpus.
func guidedFactory(check bcm.CheckMode) fleet.TargetFactory {
	return func(spec fleet.TrialSpec) (*fleet.World, error) {
		b, err := target.Build(target.Spec{Target: "bench", Check: check, Stop: true},
			core.Config{Seed: spec.Seed, Mode: core.ModeGuided}, target.Options{})
		if err != nil {
			return nil, err
		}
		return &fleet.World{Sched: b.World.Sched, Campaign: b.World.Campaign, Corpus: b.World.Corpus}, nil
	}
}

func TestPlaybackSendsOnceThenSilence(t *testing.T) {
	frames := []can.Frame{
		{ID: 1, Len: 1, Data: [8]byte{0xAA}},
		{ID: 2, Len: 2, Data: [8]byte{0xBB, 0xCC}},
	}
	p := guided.Playback(frames)
	for i, want := range frames {
		got, ok := p.Next()
		if !ok || got != want {
			t.Fatalf("frame %d: got (%v,%v)", i, got, ok)
		}
	}
	for i := 0; i < 3; i++ {
		if _, ok := p.Next(); ok {
			t.Fatal("playback kept emitting after exhaustion")
		}
	}
}

func TestMinimizeUnlockToSingleFrame(t *testing.T) {
	// Find the unlock with a guided campaign, then minimize its trigger
	// window. Under CheckByteOnly the true minimal reproducer is one frame:
	// command identifier, one byte, the unlock code — 215#20.
	w, _ := guidedWorld(t, bcm.CheckByteOnly, core.Config{Seed: 1}, target.Options{})
	finding, ok := w.Campaign.RunUntilFinding(10 * time.Minute)
	if !ok {
		t.Fatal("no finding to minimize")
	}
	m := &guided.Minimizer{
		Factory: benchFactory(bcm.CheckByteOnly),
		Seed:    1,
		Oracle:  finding.Verdict.Oracle,
	}
	res, err := m.Minimize(finding.Recent)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reproduced {
		t.Fatal("input window did not reproduce")
	}
	if len(res.Frames) > 8 {
		t.Fatalf("reproducer has %d frames, acceptance bar is <= 8", len(res.Frames))
	}
	lines := res.CorpusLines()
	if len(lines) != 1 || lines[0] != "215#20" {
		t.Fatalf("minimal reproducer = %v, want [215#20]", lines)
	}
	if res.Executions == 0 || res.Executions > guided.MaxExecutions {
		t.Fatalf("executions = %d", res.Executions)
	}
	trig := res.Trigger()
	if trig.Oracle != finding.Verdict.Oracle || len(trig.Frames) != 1 {
		t.Fatalf("trigger section %+v", trig)
	}
}

func TestMinimizeLengthCheckKeepsDLC(t *testing.T) {
	// Under CheckByteAndLength the parser demands the full 7-byte DLC, so
	// minimization must stop at a 7-byte frame with only the command byte
	// set: 215#20000000000000.
	w, _ := guidedWorld(t, bcm.CheckByteAndLength, core.Config{Seed: 42}, target.Options{})
	finding, ok := w.Campaign.RunUntilFinding(30 * time.Minute)
	if !ok {
		t.Fatal("no finding to minimize")
	}
	m := &guided.Minimizer{
		Factory: benchFactory(bcm.CheckByteAndLength),
		Seed:    42,
		Oracle:  finding.Verdict.Oracle,
	}
	res, err := m.Minimize(finding.Recent)
	if err != nil {
		t.Fatal(err)
	}
	lines := res.CorpusLines()
	if len(lines) != 1 || lines[0] != "215#20000000000000" {
		t.Fatalf("minimal reproducer = %v, want [215#20000000000000]", lines)
	}
}

func TestMinimizeReplayLogRoundTrips(t *testing.T) {
	// The emitted log must parse back with capture.ParseLog and, replayed
	// into a fresh bench (exactly what cmd/canreplay does), reproduce the
	// unlock.
	res := guided.Result{
		Frames: []can.Frame{{ID: 0x215, Len: 1, Data: [8]byte{0x20}}},
		Oracle: "unlock-ack",
	}
	var buf bytes.Buffer
	if err := res.WriteReplayLog(&buf, "can0", core.MinInterval); err != nil {
		t.Fatal(err)
	}
	trace, err := capture.ParseLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("replay log does not parse: %v", err)
	}
	sched := clock.New()
	bench := testbench.New(sched, testbench.Config{Check: bcm.CheckByteOnly, AckUnlock: true})
	port := bench.AttachFuzzer("replayer")
	capture.Replay(sched, port, trace)
	sched.RunFor(time.Second)
	if !bench.BCM.Unlocked() {
		t.Fatal("replayed reproducer did not unlock the bench")
	}
}

func TestMinimizeNoReproReturnsError(t *testing.T) {
	m := &guided.Minimizer{
		Factory: benchFactory(bcm.CheckByteOnly),
		Seed:    1,
		Oracle:  "unlock-ack",
	}
	// A lock command never unlocks: the full input fails to reproduce.
	_, err := m.Minimize([]can.Frame{{ID: 0x215, Len: 1, Data: [8]byte{0x10}}})
	if !errors.Is(err, guided.ErrNoRepro) {
		t.Fatalf("err = %v, want ErrNoRepro", err)
	}
}

func TestMinimizeDeterministic(t *testing.T) {
	w, _ := guidedWorld(t, bcm.CheckByteOnly, core.Config{Seed: 9}, target.Options{})
	finding, ok := w.Campaign.RunUntilFinding(10 * time.Minute)
	if !ok {
		t.Fatal("no finding")
	}
	run := func() ([]string, int) {
		m := &guided.Minimizer{Factory: benchFactory(bcm.CheckByteOnly), Seed: 9, Oracle: finding.Verdict.Oracle}
		res, err := m.Minimize(finding.Recent)
		if err != nil {
			t.Fatal(err)
		}
		return res.CorpusLines(), res.Executions
	}
	l1, e1 := run()
	l2, e2 := run()
	if !reflect.DeepEqual(l1, l2) || e1 != e2 {
		t.Fatalf("minimizer diverged: %v (%d execs) vs %v (%d execs)", l1, e1, l2, e2)
	}
}

// TestFleetGuidedDeterministicAcrossWorkers extends the fleet's
// byte-identical guarantee to guided mode: merged corpus and report JSON at
// workers=1 must equal NumCPU workers, and the minimized reproducer derived
// from the fleet's results must match byte-for-byte too.
func TestFleetGuidedDeterministicAcrossWorkers(t *testing.T) {
	runFleet := func(workers int) *fleet.Report {
		rep, err := fleet.Run(fleet.Config{
			Trials:      4,
			Workers:     workers,
			BaseSeed:    77,
			MaxPerTrial: 10 * time.Minute,
		}, guidedFactory(bcm.CheckByteOnly))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	minimizeFirst := func(rep *fleet.Report) []string {
		for _, tr := range rep.Results {
			if tr.Status != fleet.StatusFinding {
				continue
			}
			// Rebuild the trial world and re-run to recover the trigger
			// window, then minimize it.
			w, err := guidedFactory(bcm.CheckByteOnly)(fleet.TrialSpec{Index: tr.Trial, Seed: tr.Seed})
			if err != nil {
				t.Fatal(err)
			}
			finding, ok := w.Campaign.RunUntilFinding(10 * time.Minute)
			if !ok {
				t.Fatal("replayed trial lost its finding")
			}
			m := &guided.Minimizer{Factory: benchFactory(bcm.CheckByteOnly), Seed: tr.Seed, Oracle: finding.Verdict.Oracle}
			res, err := m.Minimize(finding.Recent)
			if err != nil {
				t.Fatal(err)
			}
			return res.CorpusLines()
		}
		t.Fatal("no finding trial in fleet")
		return nil
	}

	seq := runFleet(1)
	par := runFleet(runtime.NumCPU())

	var seqJSON, parJSON bytes.Buffer
	if err := seq.WriteJSON(&seqJSON); err != nil {
		t.Fatal(err)
	}
	if err := par.WriteJSON(&parJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqJSON.Bytes(), parJSON.Bytes()) {
		t.Fatal("guided fleet reports differ between workers=1 and NumCPU")
	}
	if len(seq.MergedCorpus) == 0 {
		t.Fatal("merged corpus empty")
	}
	if !reflect.DeepEqual(seq.MergedCorpus, par.MergedCorpus) {
		t.Fatalf("merged corpora differ:\n%v\n%v", seq.MergedCorpus, par.MergedCorpus)
	}
	if !reflect.DeepEqual(minimizeFirst(seq), minimizeFirst(par)) {
		t.Fatal("minimized reproducers differ between worker counts")
	}
}

// warmFactory builds the worlds of benchFactory (mode zero) or
// guidedFactory (core.ModeGuided) as the reset-capable worlds target.Build
// returns, and counts its builds.
func warmFactory(check bcm.CheckMode, mode core.Mode, builds *int) fleet.TargetFactory {
	return func(spec fleet.TrialSpec) (*fleet.World, error) {
		*builds++
		b, err := target.Build(target.Spec{Target: "bench", Check: check, Stop: true},
			core.Config{Seed: spec.Seed, Mode: mode}, target.Options{})
		if err != nil {
			return nil, err
		}
		return b.World, nil
	}
}

// TestMinimizeWarmMatchesCold minimizes guided findings twice:
// on the cold test factories, which build a world per candidate, and on
// reset-capable worlds, which the minimizer builds once and resets in
// place for every later candidate. Frames, detail and executions must
// match for blind and guided bench worlds under both parser checks.
func TestMinimizeWarmMatchesCold(t *testing.T) {
	modes := []struct {
		name string
		mode core.Mode
		cold func(bcm.CheckMode) fleet.TargetFactory
	}{
		{"blind", 0, benchFactory},
		{"guided", core.ModeGuided, guidedFactory},
	}
	for _, check := range []bcm.CheckMode{bcm.CheckByteOnly, bcm.CheckByteAndLength} {
		for seed := int64(1); seed <= 4; seed++ {
			w, _ := guidedWorld(t, check, core.Config{Seed: seed}, target.Options{})
			finding, ok := w.Campaign.RunUntilFinding(time.Hour)
			if !ok {
				t.Fatalf("check %v seed %d: no finding to minimize", check, seed)
			}
			for _, md := range modes {
				minimize := func(factory fleet.TargetFactory) guided.Result {
					m := &guided.Minimizer{Factory: factory, Seed: seed, Oracle: finding.Verdict.Oracle}
					res, err := m.Minimize(finding.Recent)
					if err != nil {
						t.Fatalf("check %v seed %d %s: %v", check, seed, md.name, err)
					}
					return res
				}
				cold := minimize(md.cold(check))
				builds := 0
				warm := minimize(warmFactory(check, md.mode, &builds))
				if !reflect.DeepEqual(warm, cold) {
					t.Fatalf("check %v seed %d %s: warm %+v\ncold %+v", check, seed, md.name, warm, cold)
				}
				if builds != 1 || cold.Executions < 2 {
					t.Fatalf("check %v seed %d %s: %d builds for %d executions, want 1",
						check, seed, md.name, builds, cold.Executions)
				}
			}
		}
	}
}

// TestMinimizePanickingWorldDoesNotReproduce: a candidate whose world
// panics is contained and counts as non-reproducing.
func TestMinimizePanickingWorldDoesNotReproduce(t *testing.T) {
	m := &guided.Minimizer{
		Factory: func(fleet.TrialSpec) (*fleet.World, error) { panic("world exploded") },
		Oracle:  "unlock-ack",
	}
	res, err := m.Minimize([]can.Frame{{ID: 0x215, Len: 1, Data: [8]byte{0x20}}})
	if !errors.Is(err, guided.ErrNoRepro) || res.Executions != 1 {
		t.Fatalf("err = %v after %d executions, want ErrNoRepro after 1", err, res.Executions)
	}
}
