// External test package, like the fleet suite: the trial factories use
// target, which imports campaignd.
package campaignd_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bcm"
	"repro/internal/campaignd"
	"repro/internal/can"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/observatory"
	"repro/internal/signal"
	"repro/internal/target"
)

// unlockSpec is the Table V bench world with the loose (byte-only) BCM
// parser, its campaign stopping at the unlock.
var unlockSpec = target.Spec{Target: "bench", Check: bcm.CheckByteOnly, Stop: true}

// unlockFactory builds the Table V bench world per trial.
func unlockFactory(spec fleet.TrialSpec) (*fleet.World, error) {
	b, err := target.Build(unlockSpec,
		core.Config{Seed: spec.Seed, TargetIDs: []can.ID{signal.IDBodyCommand}}, target.Options{})
	if err != nil {
		return nil, err
	}
	return &fleet.World{Sched: b.World.Sched, Campaign: b.World.Campaign}, nil
}

// guidedFactory builds the bench world with the coverage-guided engine,
// which evolves a corpus, so its trials also emit corpus_merge events.
func guidedFactory(spec fleet.TrialSpec) (*fleet.World, error) {
	b, err := target.Build(unlockSpec,
		core.Config{Seed: spec.Seed, TargetIDs: []can.ID{signal.IDBodyCommand}, Mode: core.ModeGuided}, target.Options{})
	if err != nil {
		return nil, err
	}
	return b.World, nil
}

// testSpec is the campaign every test here shards.
func testSpec(trials int) campaignd.CampaignSpec {
	return campaignd.CampaignSpec{
		Target:           "bench",
		BCMCheck:         "byte",
		Trials:           trials,
		BaseSeed:         11,
		MaxPerTrialNanos: int64(30 * time.Minute),
	}
}

// buildBench is the worker-side runtime builder every test shares: the
// bench world factory plus the spec's deadlines.
func buildBench(spec campaignd.CampaignSpec) (campaignd.Runtime, error) {
	return campaignd.Runtime{Factory: unlockFactory, FleetCfg: spec.FleetConfig()}, nil
}

// inProcessGolden runs the same campaign through fleet.Run at workers=1
// and returns its serialised report — the byte-identity reference.
func inProcessGolden(t *testing.T, spec campaignd.CampaignSpec) []byte {
	t.Helper()
	cfg := spec.FleetConfig()
	cfg.Workers = 1
	rep, err := fleet.Run(cfg, unlockFactory)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func reportBytes(t *testing.T, rep *fleet.Report) []byte {
	t.Helper()
	if rep == nil {
		t.Fatal("nil report")
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// drain runs one worker goroutine per name against the lease book until
// the campaign completes. Each trial runs through pool.RunTrial, so a nil
// pool builds every trial cold. The lease book is not safe for concurrent
// use: the workers share it under one mutex, as campsrv's do.
func drain(t *testing.T, coord *campaignd.Coordinator, spec campaignd.CampaignSpec,
	factory fleet.TargetFactory, pool *fleet.WorldPool, names ...string) {
	t.Helper()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for {
				mu.Lock()
				l := coord.AcquireLease(name)
				mu.Unlock()
				switch l.Status {
				case campaignd.LeaseDone:
					return
				case campaignd.LeaseWait:
					time.Sleep(time.Millisecond)
					continue
				}
				res := pool.RunTrial(fleet.TrialSpec{Index: l.Trial, Seed: l.Seed},
					spec.FleetConfig(), factory)
				mu.Lock()
				err := coord.Submit(l.Trial, l.ID, res)
				mu.Unlock()
				if err != nil {
					t.Errorf("worker %s: submit trial %d: %v", name, l.Trial, err)
					return
				}
			}
		}(name)
	}
	wg.Wait()
	if coord.Report() == nil {
		t.Fatal("campaign did not complete")
	}
}

func TestDistributedReportMatchesInProcess(t *testing.T) {
	// Three workers race over one lease book (the HTTP layer is campsrv's
	// and is covered there); the report must match fleet.Run byte for byte
	// whichever worker computed which trial.
	spec := testSpec(6)
	golden := inProcessGolden(t, spec)

	var journal bytes.Buffer
	sink := observatory.NewSink(&journal)
	coord, err := campaignd.New(campaignd.Config{Spec: spec, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, coord, spec, unlockFactory, nil, "w1", "w2", "w3")
	if got := reportBytes(t, coord.Report()); !bytes.Equal(got, golden) {
		t.Fatalf("distributed report differs from in-process run:\n--- dist ---\n%s\n--- golden ---\n%s", got, golden)
	}

	// The journal must be a self-sufficient record: replay it and the same
	// report falls out.
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	j, err := campaignd.LoadJournal(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Compatible(spec); err != nil {
		t.Fatal(err)
	}
	results := make([]fleet.TrialResult, spec.Trials)
	for i := range results {
		res, ok := j.Results[i]
		if !ok {
			t.Fatalf("journal lacks trial %d", i)
		}
		results[i] = res
	}
	replayed := fleet.NewReport(spec.BaseSeed, time.Duration(spec.MaxPerTrialNanos), results)
	if got := reportBytes(t, replayed); !bytes.Equal(got, golden) {
		t.Fatalf("journal replay report differs from in-process run:\n%s", got)
	}
	st := coord.Snapshot()
	if !st.Complete || st.Done != spec.Trials {
		t.Fatalf("status after completion: %+v", st)
	}
}

// TestJournalMatchesEventLog runs one guided spec twice: in process with
// an observatory event log, and through a lease book drained by two
// workers that recycle their worlds. Without its journal-only lines
// (campaign_start, trial_result) the sorted journal must equal the sorted
// event log byte for byte. The trial count makes both a periodic and the
// final checkpoint fire.
func TestJournalMatchesEventLog(t *testing.T) {
	spec := testSpec(2*observatory.CheckpointEvery + 3)

	var eventLog bytes.Buffer
	cfg := spec.FleetConfig()
	cfg.Workers = 2
	cfg.Observer = observatory.New(observatory.Config{Sink: observatory.NewSink(&eventLog)})
	if _, err := fleet.Run(cfg, guidedFactory); err != nil {
		t.Fatal(err)
	}
	for _, typ := range []string{"corpus_merge", "checkpoint"} {
		if !strings.Contains(eventLog.String(), `"type":"`+typ+`"`) {
			t.Fatalf("event log has no %s line", typ)
		}
	}

	var journal bytes.Buffer
	sink := observatory.NewSink(&journal)
	coord, err := campaignd.New(campaignd.Config{Spec: spec, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, coord, spec, guidedFactory, &fleet.WorldPool{}, "w1", "w2")
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	var trialEvents []string
	for _, line := range sortedLines(journal.String()) {
		if !strings.Contains(line, `"type":"campaign_start"`) && !strings.Contains(line, `"type":"trial_result"`) {
			trialEvents = append(trialEvents, line)
		}
	}
	want := sortedLines(eventLog.String())
	if got := strings.Join(trialEvents, "\n"); got != strings.Join(want, "\n") {
		t.Fatalf("sorted journal differs from the sorted event log:\n--- journal ---\n%s\n--- event log ---\n%s",
			got, strings.Join(want, "\n"))
	}
}

// sortedLines splits a JSONL log into its lines, sorted.
func sortedLines(log string) []string {
	lines := strings.Split(strings.TrimSuffix(log, "\n"), "\n")
	sort.Strings(lines)
	return lines
}

func TestWorkerCrashLeaseRedispatch(t *testing.T) {
	// A worker that takes a lease and dies must not strand its trial: the
	// lease expires and the trial is re-dispatched after backoff. The lease
	// book reads a stepped clock, so the test waits for nothing.
	spec := testSpec(2)
	coord, err := campaignd.New(campaignd.Config{Spec: spec, LeaseTTL: 60 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_000_000, 0)
	start := now
	campaignd.SetNow(coord, func() time.Time { return now })

	// "Crashed" worker: leases trial 0, never heartbeats, never submits.
	dead := coord.AcquireLease("crashed")
	if dead.Status != campaignd.LeaseGranted || dead.Trial != 0 {
		t.Fatalf("first lease = %+v", dead)
	}

	// A live worker immediately gets trial 1...
	l1 := coord.AcquireLease("live")
	if l1.Status != campaignd.LeaseGranted || l1.Trial != 1 {
		t.Fatalf("second lease = %+v", l1)
	}
	// ...and then must wait out the dead lease's TTL + redispatch backoff
	// (Base 250ms) before trial 0 comes around again. The live worker does
	// not heartbeat, so trial 1's lease expires too and may come back
	// first, in an order the redispatch jitter decides; the worker takes it
	// over.
	var l0 campaignd.Lease
	for {
		l0 = coord.AcquireLease("live")
		if l0.Status == campaignd.LeaseGranted && l0.Trial == 1 {
			l1 = l0
			continue
		}
		if l0.Status == campaignd.LeaseGranted {
			break
		}
		if now.Sub(start) > 10*time.Second {
			t.Fatalf("trial 0 never re-dispatched: %+v", l0)
		}
		now = now.Add(l0.RetryAfter)
	}
	if l0.Trial != 0 || l0.ID == dead.ID {
		t.Fatalf("redispatched lease = %+v (dead lease id %d)", l0, dead.ID)
	}
	if waited := now.Sub(start); waited < 60*time.Millisecond+campaignd.Redispatch.Base/2 {
		t.Fatalf("trial 0 re-dispatched after %v, before its TTL and backoff", waited)
	}
	if st := coord.Snapshot(); st.Expiries == 0 {
		t.Fatalf("no expiry recorded: %+v", st)
	}

	// The dead worker's heartbeat would now be refused.
	if err := coord.Heartbeat(dead.ID); err == nil {
		t.Fatal("heartbeat on an expired lease succeeded")
	}

	// Both trials complete through the live worker.
	for _, l := range []campaignd.Lease{l1, l0} {
		res := fleet.RunTrial(fleet.TrialSpec{Index: l.Trial, Seed: l.Seed},
			spec.FleetConfig(), unlockFactory)
		if err := coord.Submit(l.Trial, l.ID, res); err != nil {
			t.Fatal(err)
		}
	}
	if rep := coord.Report(); rep == nil || rep.Completed != 2 {
		t.Fatalf("report = %+v", rep)
	}

	// The stale worker finally submits trial 0: idempotent duplicate.
	res := fleet.RunTrial(fleet.TrialSpec{Index: 0, Seed: dead.Seed},
		spec.FleetConfig(), unlockFactory)
	if err := coord.Submit(0, dead.ID, res); err != campaignd.ErrTrialDone {
		t.Fatalf("duplicate submit err = %v, want ErrTrialDone", err)
	}
	if st := coord.Snapshot(); st.Duplicates != 1 {
		t.Fatalf("duplicates = %d, want 1", st.Duplicates)
	}
}

func TestCoordinatorCrashResume(t *testing.T) {
	spec := testSpec(6)
	golden := inProcessGolden(t, spec)
	cfg := spec.FleetConfig()

	// First coordinator journals three accepted trials, then "crashes" (is
	// dropped without ceremony).
	var journal bytes.Buffer
	first, err := campaignd.New(campaignd.Config{Spec: spec, Sink: observatory.NewSink(&journal)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		l := first.AcquireLease("w")
		if l.Status != campaignd.LeaseGranted {
			t.Fatalf("lease %d: %+v", i, l)
		}
		res := fleet.RunTrial(fleet.TrialSpec{Index: l.Trial, Seed: l.Seed}, cfg, unlockFactory)
		if err := first.Submit(l.Trial, l.ID, res); err != nil {
			t.Fatal(err)
		}
	}

	// Successor: reload the journal, verify compatibility, resume.
	j, err := campaignd.LoadJournal(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Compatible(spec); err != nil {
		t.Fatal(err)
	}
	if len(j.Results) != 3 {
		t.Fatalf("journal recovered %d results, want 3", len(j.Results))
	}
	second, err := campaignd.New(campaignd.Config{
		Spec: spec, Sink: observatory.NewSink(&journal), Resumed: j.Results,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := second.Snapshot(); st.Done != 3 || st.Resumed != 3 {
		t.Fatalf("resumed status: %+v", st)
	}

	// A completed trial is never re-leased: drain the remaining three.
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		l := second.AcquireLease("w")
		if l.Status != campaignd.LeaseGranted {
			t.Fatalf("post-resume lease: %+v", l)
		}
		if seen[l.Trial] {
			t.Fatalf("trial %d leased twice", l.Trial)
		}
		seen[l.Trial] = true
		res := fleet.RunTrial(fleet.TrialSpec{Index: l.Trial, Seed: l.Seed}, cfg, unlockFactory)
		if err := second.Submit(l.Trial, l.ID, res); err != nil {
			t.Fatal(err)
		}
	}
	if l := second.AcquireLease("w"); l.Status != campaignd.LeaseDone {
		t.Fatalf("lease after completion: %+v", l)
	}
	if got := reportBytes(t, second.Report()); !bytes.Equal(got, golden) {
		t.Fatalf("resumed report differs from in-process run:\n--- resumed ---\n%s\n--- golden ---\n%s", got, golden)
	}
}

func TestResumeRejectsForeignJournal(t *testing.T) {
	spec := testSpec(4)
	var journal bytes.Buffer
	if _, err := campaignd.New(campaignd.Config{Spec: spec, Sink: observatory.NewSink(&journal)}); err != nil {
		t.Fatal(err)
	}
	j, err := campaignd.LoadJournal(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	other := spec
	other.BaseSeed++
	if err := j.Compatible(other); err == nil {
		t.Fatal("journal accepted for a different base seed")
	}
	if err := (&campaignd.Journal{}).Compatible(spec); err == nil {
		t.Fatal("journal without campaign_start accepted")
	}
}

func TestJournalTruncatedTail(t *testing.T) {
	spec := testSpec(4)
	cfg := spec.FleetConfig()
	var journal bytes.Buffer
	coord, err := campaignd.New(campaignd.Config{Spec: spec, Sink: observatory.NewSink(&journal)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		l := coord.AcquireLease("w")
		res := fleet.RunTrial(fleet.TrialSpec{Index: l.Trial, Seed: l.Seed}, cfg, unlockFactory)
		if err := coord.Submit(l.Trial, l.ID, res); err != nil {
			t.Fatal(err)
		}
	}
	full := journal.String()
	lines := strings.SplitAfter(full, "\n") // ends with "" after the last '\n'
	if last := lines[len(lines)-2]; !strings.Contains(last, `"trial_result"`) {
		t.Fatalf("journal ends in %q, want a trial_result line", last)
	}

	// Tear the final line mid-write, as a crash during append would, or
	// lose only its '\n': either way the line is a torn tail. Counting a
	// complete-but-unterminated line as done would be wrong — OpenJournal
	// cuts it, so that trial would never be journalled again.
	for name, torn := range map[string]string{
		"mid-line":   full[:len(full)-8],
		"no-newline": full[:len(full)-1],
	} {
		j, err := campaignd.LoadJournal(strings.NewReader(torn))
		if err != nil {
			t.Fatalf("%s: torn tail should be tolerated: %v", name, err)
		}
		if !j.TruncatedTail || len(j.Results) != 1 {
			t.Fatalf("%s: TruncatedTail=%v, %d results; want true, 1", name, j.TruncatedTail, len(j.Results))
		}

		// OpenJournal applies the same rule to a file and cuts the tail.
		path := filepath.Join(t.TempDir(), "events.jsonl")
		if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
			t.Fatal(err)
		}
		f, oj, err := campaignd.OpenJournal(path)
		if err != nil {
			t.Fatalf("%s: OpenJournal: %v", name, err)
		}
		if _, err := f.WriteString("{}\n"); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if len(oj.Results) != len(j.Results) || oj.Lines != j.Lines {
			t.Fatalf("%s: OpenJournal read %d results/%d lines, LoadJournal %d/%d",
				name, len(oj.Results), oj.Lines, len(j.Results), j.Lines)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := torn[:strings.LastIndex(torn, "\n")+1] + "{}\n"; string(got) != want {
			t.Fatalf("%s: appended after %d bytes, want after the %d-byte prefix",
				name, len(got)-3, len(want)-3)
		}
	}

	// A malformed line mid-stream is corruption, not a torn tail; so is a
	// malformed last line that has its '\n'.
	for _, corrupt := range []string{"{bad json}\n" + full, full + "{bad json}\n"} {
		if _, err := campaignd.LoadJournal(strings.NewReader(corrupt)); !errors.Is(err, campaignd.ErrCorruptJournal) {
			t.Fatalf("corrupt journal: err %v, want ErrCorruptJournal", err)
		}
	}
	if _, _, err := campaignd.OpenJournal(filepath.Join(t.TempDir(), "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing journal: err %v, want os.ErrNotExist", err)
	}
}

func TestResumeRejectsSeedMismatch(t *testing.T) {
	spec := testSpec(4)
	bad := map[int]fleet.TrialResult{
		1: {Trial: 1, Seed: 999, Status: fleet.StatusTimeout},
	}
	if _, err := campaignd.New(campaignd.Config{Spec: spec, Resumed: bad}); err == nil {
		t.Fatal("resumed result with wrong seed accepted")
	}
	good := map[int]fleet.TrialResult{
		1: {Trial: 1, Seed: faults.DeriveSeed(spec.BaseSeed, 1), Status: fleet.StatusTimeout},
	}
	if _, err := campaignd.New(campaignd.Config{Spec: spec, Resumed: good}); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitValidation(t *testing.T) {
	spec := testSpec(2)
	coord, err := campaignd.New(campaignd.Config{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	l := coord.AcquireLease("w")
	if err := coord.Submit(99, l.ID, fleet.TrialResult{Trial: 99}); err == nil {
		t.Error("out-of-range trial accepted")
	}
	if err := coord.Submit(l.Trial, l.ID, fleet.TrialResult{Trial: l.Trial, Seed: 12345}); err == nil {
		t.Error("seed-mismatched result accepted")
	}
}

// TestSubmitRejectsUnknownStatus: a result's status becomes a label of the
// report's fleet_trials_total series, so only the statuses a run trial
// ends in are accepted; skipped, empty and made-up ones are client bugs.
func TestSubmitRejectsUnknownStatus(t *testing.T) {
	spec := testSpec(1)
	coord, err := campaignd.New(campaignd.Config{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	l := coord.AcquireLease("w")
	res := fleet.TrialResult{Trial: l.Trial, Seed: l.Seed}
	for _, status := range []string{"bogus", "", fleet.StatusSkipped} {
		res.Status = status
		if err := coord.Submit(l.Trial, l.ID, res); !errors.Is(err, campaignd.ErrBadResult) {
			t.Fatalf("status %q: err %v, want ErrBadResult", status, err)
		}
	}
	res.Status = fleet.StatusTimeout
	if err := coord.Submit(l.Trial, l.ID, res); err != nil {
		t.Fatalf("timeout result rejected: %v", err)
	}
	rep := coord.Report()
	if rep == nil || rep.Completed != 1 || rep.Skipped != 0 {
		t.Fatalf("report = %+v, want one completed trial", rep)
	}
	if bytes.Contains(rep.Telemetry, []byte("bogus")) {
		t.Fatalf("a rejected status reached the report's telemetry: %s", rep.Telemetry)
	}

	bad := map[int]fleet.TrialResult{0: {Trial: 0, Seed: l.Seed, Status: "bogus"}}
	if _, err := campaignd.New(campaignd.Config{Spec: spec, Resumed: bad}); err == nil {
		t.Fatal("resumed result with an unknown status accepted")
	}
}

// TestSpecTrialBounds: the lease book allocates a record per trial, so a
// spec must name between one and MaxTrials of them.
func TestSpecTrialBounds(t *testing.T) {
	for trials, ok := range map[int]bool{
		0: false, 1: true, campaignd.MaxTrials: true, campaignd.MaxTrials + 1: false,
	} {
		if err := testSpec(trials).Validate(); (err == nil) != ok {
			t.Errorf("Trials=%d: Validate err %v, want ok=%t", trials, err, ok)
		}
	}
}
