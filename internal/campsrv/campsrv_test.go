// External test package, like the campaignd suite: the trial factories
// use target, which imports campaignd and fleet.
package campsrv_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/bcm"
	"repro/internal/campaignd"
	"repro/internal/campsrv"
	"repro/internal/can"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/findings"
	"repro/internal/fleet"
	"repro/internal/signal"
	"repro/internal/target"
	"repro/internal/telemetry"
)

// unlockFactory builds the Table V bench world per trial. The world
// resets in place, so a worker recycles it across a campaign's trials.
func unlockFactory(spec fleet.TrialSpec) (*fleet.World, error) {
	b, err := target.Build(target.Spec{Target: "bench", Check: bcm.CheckByteOnly, Stop: true},
		core.Config{Seed: spec.Seed, TargetIDs: []can.ID{signal.IDBodyCommand}}, target.Options{})
	if err != nil {
		return nil, err
	}
	return b.World, nil
}

// workerBuilds is one worker's campaign-agnostic runtime builder. It
// counts, per campaign base seed, the runtimes the worker built and the
// worlds their factories built; reset, when non-nil, replaces every
// world's Reset hook.
type workerBuilds struct {
	reset    func(fleet.TrialSpec) error
	runtimes map[int64]int
	worlds   map[int64]int
}

func newWorkerBuilds() *workerBuilds {
	return &workerBuilds{runtimes: map[int64]int{}, worlds: map[int64]int{}}
}

func (b *workerBuilds) build(spec campaignd.CampaignSpec) (campaignd.Runtime, error) {
	b.runtimes[spec.BaseSeed]++
	factory := func(ts fleet.TrialSpec) (*fleet.World, error) {
		b.worlds[spec.BaseSeed]++
		w, err := unlockFactory(ts)
		if err == nil && b.reset != nil {
			w.Reset = b.reset
		}
		return w, err
	}
	return campaignd.Runtime{Factory: factory, FleetCfg: spec.FleetConfig()}, nil
}

// checkWarm asserts the worker built one runtime and one world per
// campaign it served — not one world per trial. Call it once the worker
// has returned.
func (b *workerBuilds) checkWarm(t *testing.T, name string) {
	t.Helper()
	for seed, n := range b.runtimes {
		if n != 1 || b.worlds[seed] != 1 {
			t.Fatalf("worker %s, campaign with base seed %d: %d runtimes, %d worlds built; want 1, 1",
				name, seed, n, b.worlds[seed])
		}
	}
}

// testSpec returns a bench campaign; distinct base seeds keep distinct
// campaigns' trial seeds — and therefore their results — distinguishable.
func testSpec(trials int, baseSeed int64) campaignd.CampaignSpec {
	return campaignd.CampaignSpec{
		Target:           "bench",
		BCMCheck:         "byte",
		Trials:           trials,
		BaseSeed:         baseSeed,
		MaxPerTrialNanos: int64(30 * time.Minute),
	}
}

// inProcessGolden runs the same campaign through fleet.Run at workers=1 on
// the cold path, a fresh world per trial, and returns its serialised
// report — the byte-identity reference.
func inProcessGolden(t *testing.T, spec campaignd.CampaignSpec) []byte {
	t.Helper()
	cfg := spec.FleetConfig()
	cfg.Workers = 1
	rep, err := fleet.Run(cfg, func(spec fleet.TrialSpec) (*fleet.World, error) {
		w, err := unlockFactory(spec)
		if w != nil {
			w.Reset = nil // a fresh world per trial: the cold oracle
		}
		return w, err
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newServer(t *testing.T, cfg campsrv.Config) *campsrv.Server {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s, err := campsrv.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func submit(t *testing.T, s *campsrv.Server, spec campaignd.CampaignSpec, priority, maxInflight int) string {
	t.Helper()
	v, err := s.Submit(campsrv.Submission{Spec: spec, Priority: priority, MaxInflight: maxInflight})
	if err != nil {
		t.Fatal(err)
	}
	return v.ID
}

// runLease computes the leased trial exactly as a worker would.
func runLease(spec campaignd.CampaignSpec, l campaignd.Lease) fleet.TrialResult {
	return fleet.RunTrial(fleet.TrialSpec{Index: l.Trial, Seed: l.Seed}, spec.FleetConfig(), unlockFactory)
}

// drainAll lease-loops in-process until every campaign in specs is done,
// acting as a single synchronous worker against the server API.
func drainAll(t *testing.T, s *campsrv.Server, specs map[string]campaignd.CampaignSpec) {
	t.Helper()
	drainWith(t, s, specs, runLease)
}

// drainWith is drainAll with the trial computation supplied by the caller.
func drainWith(t *testing.T, s *campsrv.Server, specs map[string]campaignd.CampaignSpec,
	result func(campaignd.CampaignSpec, campaignd.Lease) fleet.TrialResult) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	remaining := len(specs)
	for remaining > 0 {
		if time.Now().After(deadline) {
			t.Fatal("drainAll: campaigns did not finish in time")
		}
		l := s.AcquireLease("test-worker")
		switch l.Status {
		case campaignd.LeaseGranted:
			spec, ok := specs[l.Campaign]
			if !ok {
				t.Fatalf("lease for unexpected campaign %q", l.Campaign)
			}
			ack, err := s.SubmitResult(l.Campaign, l.Trial, l.ID, result(spec, l))
			if err != nil {
				t.Fatalf("submit %s trial %d: %v", l.Campaign, l.Trial, err)
			}
			if ack.CampaignDone {
				remaining--
			}
		case campaignd.LeaseWait:
			time.Sleep(5 * time.Millisecond)
		case campaignd.LeaseDone:
			t.Fatal("scheduler answered done with campaigns still outstanding")
		}
	}
	// A finish goroutine finalises each report asynchronously after the
	// last ack; wait for every campaign to reach done.
	for id := range specs {
		waitState(t, s, id, campsrv.StateDone)
	}
}

func waitState(t *testing.T, s *campsrv.Server, id string, want campsrv.State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		d, err := s.Detail(id)
		if err != nil {
			t.Fatal(err)
		}
		if d.State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck in %s, want %s", id, d.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// journalReport replays a campaign journal on its own: it must name the
// spec, hold every trial's trial_result exactly once, and the report
// rebuilt from it alone is returned for comparison with the golden.
func journalReport(t *testing.T, path string, spec campaignd.CampaignSpec) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte(`"type":"trial_result"`)); n != spec.Trials {
		t.Fatalf("%s journals %d trial_result lines, want each of %d trials once", path, n, spec.Trials)
	}
	j, err := campaignd.LoadJournal(bytes.NewReader(data))
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
			t.Fatalf("%s lacks trial %d", path, i)
		}
		results[i] = res
	}
	var buf bytes.Buffer
	rep := fleet.NewReport(spec.BaseSeed, time.Duration(spec.MaxPerTrialNanos), results)
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func reportJSON(t *testing.T, s *campsrv.Server, id string) []byte {
	t.Helper()
	rep, err := s.ReportJSON(id)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestFairShareProportions saturates the scheduler with lease polls and
// asserts the weighted-round-robin grant mix: priorities 3:1 over two
// dispatchable campaigns must yield grants in exactly 3:1 proportion.
func TestFairShareProportions(t *testing.T) {
	s := newServer(t, campsrv.Config{})
	defer s.Close()
	high := submit(t, s, testSpec(40, 11), 3, 0)
	low := submit(t, s, testSpec(40, 99), 1, 0)

	counts := map[string]int{}
	for i := 0; i < 40; i++ {
		l := s.AcquireLease("w")
		if l.Status != campaignd.LeaseGranted {
			t.Fatalf("poll %d: status %q, want granted", i, l.Status)
		}
		counts[l.Campaign]++
	}
	if counts[high] != 30 || counts[low] != 10 {
		t.Fatalf("grant mix %v, want %s=30 %s=10", counts, high, low)
	}
}

// TestMaxInflightCap: a campaign's cap bounds its concurrently leased
// trials even when it is the only dispatchable campaign.
func TestMaxInflightCap(t *testing.T) {
	s := newServer(t, campsrv.Config{})
	defer s.Close()
	submit(t, s, testSpec(10, 11), 1, 2)

	for i := 0; i < 2; i++ {
		if l := s.AcquireLease("w"); l.Status != campaignd.LeaseGranted {
			t.Fatalf("lease %d: status %q, want granted", i, l.Status)
		}
	}
	if l := s.AcquireLease("w"); l.Status != campaignd.LeaseWait {
		t.Fatalf("capped campaign still granting: status %q", l.Status)
	}
}

// TestLeaseExpiryRedispatchAcrossCampaigns: leases abandoned in two
// concurrent campaigns are both re-dispatched after their TTL, and the
// final reports are unaffected by the churn.
func TestLeaseExpiryRedispatchAcrossCampaigns(t *testing.T) {
	specA, specB := testSpec(2, 11), testSpec(2, 99)
	goldenA, goldenB := inProcessGolden(t, specA), inProcessGolden(t, specB)

	s := newServer(t, campsrv.Config{LeaseTTL: 50 * time.Millisecond})
	defer s.Close()
	idA := submit(t, s, specA, 1, 0)
	idB := submit(t, s, specB, 1, 0)

	// Lease everything and walk away: the crashed-worker scenario, twice.
	abandoned := map[string]int{}
	for i := 0; i < 4; i++ {
		l := s.AcquireLease("crashed")
		if l.Status != campaignd.LeaseGranted {
			t.Fatalf("initial lease %d: status %q", i, l.Status)
		}
		abandoned[l.Campaign]++
	}
	if abandoned[idA] != 2 || abandoned[idB] != 2 {
		t.Fatalf("abandoned lease mix %v", abandoned)
	}
	time.Sleep(120 * time.Millisecond)

	// A healthy worker must now receive every trial again, in both
	// campaigns, and carry the fleet to completion.
	drainAll(t, s, map[string]campaignd.CampaignSpec{idA: specA, idB: specB})
	if got := reportJSON(t, s, idA); !bytes.Equal(got, goldenA) {
		t.Fatalf("campaign A report differs after lease churn:\n%s\n--- golden ---\n%s", got, goldenA)
	}
	if got := reportJSON(t, s, idB); !bytes.Equal(got, goldenB) {
		t.Fatalf("campaign B report differs after lease churn:\n%s\n--- golden ---\n%s", got, goldenB)
	}
}

// TestCrossCampaignSubmission: a result computed for one campaign must not
// be acceptable to another (their per-trial seeds differ), and resubmitting
// to the right campaign is a duplicate, not a second acceptance.
func TestCrossCampaignSubmission(t *testing.T) {
	s := newServer(t, campsrv.Config{})
	defer s.Close()
	specA, specB := testSpec(3, 11), testSpec(3, 99)
	idA := submit(t, s, specA, 1, 0)
	idB := submit(t, s, specB, 1, 0)

	l := s.AcquireLease("w")
	if l.Status != campaignd.LeaseGranted || l.Campaign != idA {
		t.Fatalf("first lease: %+v, want a grant from %s", l, idA)
	}
	res := runLease(specA, l)

	other := idB
	if l.Campaign == idB {
		other = idA
	}
	if _, err := s.SubmitResult(other, l.Trial, l.ID, res); !errors.Is(err, campaignd.ErrBadResult) {
		t.Fatalf("cross-campaign submission: err %v, want ErrBadResult", err)
	}
	if _, err := s.SubmitResult("c9999", l.Trial, l.ID, res); !errors.Is(err, campsrv.ErrNotFound) {
		t.Fatalf("unknown campaign: err %v, want ErrNotFound", err)
	}

	ack, err := s.SubmitResult(idA, l.Trial, l.ID, res)
	if err != nil || !ack.Accepted {
		t.Fatalf("legitimate submission rejected: ack %+v err %v", ack, err)
	}
	dup, err := s.SubmitResult(idA, l.Trial, l.ID, res)
	if err != nil || !dup.Duplicate || dup.Accepted {
		t.Fatalf("resubmission: ack %+v err %v, want duplicate", dup, err)
	}
}

// TestResultRouteRejectsUnknownStatus: POST /campaignd/result answers 400
// to a result whose status no trial can end in, and the trial stays open
// for the legitimate result.
func TestResultRouteRejectsUnknownStatus(t *testing.T) {
	s := newServer(t, campsrv.Config{})
	defer s.Close()
	spec := testSpec(1, 11)
	id := submit(t, s, spec, 1, 0)
	h := s.Handler(campsrv.HandlerConfig{})
	l := s.AcquireLease("w")
	res := runLease(spec, l)
	post := func(res fleet.TrialResult) int {
		body, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		url := "/campaignd/result?campaign=" + id + "&trial=" + strconv.Itoa(l.Trial) +
			"&lease=" + strconv.FormatUint(l.ID, 10) + "&worker=w"
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body)))
		return rec.Code
	}
	bogus := res
	bogus.Status = "bogus"
	if code := post(bogus); code != http.StatusBadRequest {
		t.Fatalf("bogus status: HTTP %d, want 400", code)
	}
	if code := post(res); code != http.StatusOK {
		t.Fatalf("legitimate result after the rejection: HTTP %d, want 200", code)
	}
}

// TestCloseRacesCampaignCompletion closes the server the moment a
// campaign's last result lands, while its finish goroutine finalises the
// journal: exactly one of the two closes the journal, Close reports no
// error, and nothing writes to the data directory after Close returns
// (each iteration's TempDir cleanup would fail on a late index write).
func TestCloseRacesCampaignCompletion(t *testing.T) {
	spec := testSpec(1, 11)
	res := runLease(spec, campaignd.Lease{Trial: 0, Seed: faults.DeriveSeed(spec.BaseSeed, 0)})
	for i := 0; i < 20; i++ {
		t.Run(strconv.Itoa(i), func(t *testing.T) {
			s := newServer(t, campsrv.Config{})
			id := submit(t, s, spec, 1, 0)
			l := s.AcquireLease("w")
			if l.Status != campaignd.LeaseGranted || l.Seed != res.Seed {
				t.Fatalf("lease %+v, want trial 0 at seed %d", l, res.Seed)
			}
			if ack, err := s.SubmitResult(id, l.Trial, l.ID, res); err != nil || !ack.CampaignDone {
				t.Fatalf("submit: ack %+v err %v, want the campaign done", ack, err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestThreeCampaignsSharedWorkersByteIdentical is the acceptance scenario:
// three campaigns at different priorities over four shared HTTP workers,
// every final report byte-identical to the in-process fleet.Run report.
func TestThreeCampaignsSharedWorkersByteIdentical(t *testing.T) {
	specs := []campaignd.CampaignSpec{testSpec(5, 11), testSpec(6, 22), testSpec(7, 33)}
	goldens := make([][]byte, len(specs))
	for i, spec := range specs {
		goldens[i] = inProcessGolden(t, spec)
	}

	dir := t.TempDir()
	s := newServer(t, campsrv.Config{DataDir: dir})
	defer s.Close()
	hs := httptest.NewServer(s.Handler(campsrv.HandlerConfig{}))
	defer hs.Close()

	ids := make([]string, len(specs))
	for i, spec := range specs {
		ids[i] = submit(t, s, spec, i+1, 0)
	}

	var wg sync.WaitGroup
	workerErrs := make([]error, 4)
	builds := make([]*workerBuilds, len(workerErrs))
	for i := range workerErrs {
		builds[i] = newWorkerBuilds()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &campaignd.Worker{
				Client: &campaignd.Client{Base: hs.URL},
				Name:   string(rune('a' + i)),
				Build:  builds[i].build,
			}
			workerErrs[i] = w.Run(context.Background())
		}(i)
	}

	for _, id := range ids {
		waitState(t, s, id, campsrv.StateDone)
	}
	// All campaigns drained; the workers are idle-polling the scheduler —
	// the shutdown signal is what releases them.
	s.BeginShutdown()
	wg.Wait()
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		builds[i].checkWarm(t, string(rune('a'+i)))
	}

	for i, id := range ids {
		if got := reportJSON(t, s, id); !bytes.Equal(got, goldens[i]) {
			t.Fatalf("campaign %s report differs from in-process run:\n%s\n--- golden ---\n%s",
				id, got, goldens[i])
		}
		// Each journal is a self-sufficient record: the same report falls
		// out of it alone.
		if got := journalReport(t, filepath.Join(dir, id, "events.jsonl"), specs[i]); !bytes.Equal(got, goldens[i]) {
			t.Fatalf("campaign %s journal replay differs from in-process run:\n%s", id, got)
		}
	}
}

// TestWorkerOutlivesFirstCampaign is the shutdown-semantics regression
// test: a campaign draining means "that campaign is finished", not "the
// fleet is finished" — the worker must return to the scheduler and serve
// the next campaign rather than exiting.
func TestWorkerOutlivesFirstCampaign(t *testing.T) {
	specA, specB := testSpec(3, 11), testSpec(3, 99)
	goldenA, goldenB := inProcessGolden(t, specA), inProcessGolden(t, specB)

	s := newServer(t, campsrv.Config{})
	defer s.Close()
	hs := httptest.NewServer(s.Handler(campsrv.HandlerConfig{}))
	defer hs.Close()

	var wg sync.WaitGroup
	var workerErr error
	builds := newWorkerBuilds()
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := &campaignd.Worker{
			Client: &campaignd.Client{Base: hs.URL},
			Name:   "survivor",
			Build:  builds.build,
		}
		workerErr = w.Run(context.Background())
	}()

	idA := submit(t, s, specA, 1, 0)
	waitState(t, s, idA, campsrv.StateDone)

	// First campaign fully drained. The worker heard CampaignDone, not
	// Done — it must still be polling and pick up the second campaign.
	idB := submit(t, s, specB, 1, 0)
	waitState(t, s, idB, campsrv.StateDone)

	s.BeginShutdown()
	wg.Wait()
	if workerErr != nil {
		t.Fatalf("worker: %v", workerErr)
	}
	if len(builds.runtimes) != 2 {
		t.Fatalf("worker built runtimes for %d campaigns, want 2", len(builds.runtimes))
	}
	builds.checkWarm(t, "survivor")
	if got := reportJSON(t, s, idA); !bytes.Equal(got, goldenA) {
		t.Fatalf("first campaign report differs:\n%s\n--- golden ---\n%s", got, goldenA)
	}
	if got := reportJSON(t, s, idB); !bytes.Equal(got, goldenB) {
		t.Fatalf("second campaign report differs:\n%s\n--- golden ---\n%s", got, goldenB)
	}
}

// TestWorkerResetFallback: a recycled world whose Reset fails — by error
// or by panic — is discarded and the trial runs on a freshly built world,
// so the worker builds once per trial and the report still equals the
// in-process golden.
func TestWorkerResetFallback(t *testing.T) {
	spec := testSpec(4, 11)
	golden := inProcessGolden(t, spec)
	for name, reset := range map[string]func(fleet.TrialSpec) error{
		"error": func(fleet.TrialSpec) error { return errors.New("reset refused") },
		"panic": func(fleet.TrialSpec) error { panic("reset exploded") },
	} {
		t.Run(name, func(t *testing.T) {
			s := newServer(t, campsrv.Config{})
			defer s.Close()
			hs := httptest.NewServer(s.Handler(campsrv.HandlerConfig{}))
			defer hs.Close()
			id := submit(t, s, spec, 1, 0)

			builds := newWorkerBuilds()
			builds.reset = reset
			done := make(chan error, 1)
			go func() {
				w := &campaignd.Worker{
					Client: &campaignd.Client{Base: hs.URL},
					Name:   name,
					Build:  builds.build,
				}
				done <- w.Run(context.Background())
			}()
			waitState(t, s, id, campsrv.StateDone)
			s.BeginShutdown()
			if err := <-done; err != nil {
				t.Fatalf("worker: %v", err)
			}
			if n := builds.worlds[spec.BaseSeed]; n != spec.Trials {
				t.Fatalf("worker built %d worlds, want one per trial (%d)", n, spec.Trials)
			}
			if got := reportJSON(t, s, id); !bytes.Equal(got, golden) {
				t.Fatalf("report differs from in-process run:\n%s\n--- golden ---\n%s", got, golden)
			}
		})
	}
}

// TestKillResumeByteIdentical: abandon the server mid-fleet (the SIGKILL
// stand-in — journals never closed, index mid-campaign), resume the data
// directory in a fresh server, finish the trials, and require every final
// report byte-identical to the in-process golden.
func TestKillResumeByteIdentical(t *testing.T) {
	specA, specB := testSpec(6, 11), testSpec(5, 99)
	goldenA, goldenB := inProcessGolden(t, specA), inProcessGolden(t, specB)
	dir := t.TempDir()

	s1 := newServer(t, campsrv.Config{DataDir: dir})
	idA := submit(t, s1, specA, 2, 0)
	idB := submit(t, s1, specB, 1, 0)
	specs := map[string]campaignd.CampaignSpec{idA: specA, idB: specB}

	// Complete five trials, then walk away without Close: journal file
	// descriptors die with the "process", exactly like SIGKILL.
	for i := 0; i < 5; i++ {
		l := s1.AcquireLease("doomed")
		if l.Status != campaignd.LeaseGranted {
			t.Fatalf("lease %d before kill: status %q", i, l.Status)
		}
		if _, err := s1.SubmitResult(l.Campaign, l.Trial, l.ID, runLease(specs[l.Campaign], l)); err != nil {
			t.Fatal(err)
		}
	}

	s2 := newServer(t, campsrv.Config{DataDir: dir, Resume: true})
	defer s2.Close()
	drainAll(t, s2, specs)
	if got := reportJSON(t, s2, idA); !bytes.Equal(got, goldenA) {
		t.Fatalf("campaign A report differs after resume:\n%s\n--- golden ---\n%s", got, goldenA)
	}
	if got := reportJSON(t, s2, idB); !bytes.Equal(got, goldenB) {
		t.Fatalf("campaign B report differs after resume:\n%s\n--- golden ---\n%s", got, goldenB)
	}

	// Completed campaigns must survive a further resume: the report is
	// rebuilt from the journal alone, byte-identical again.
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := newServer(t, campsrv.Config{DataDir: dir, Resume: true})
	defer s3.Close()
	if got := reportJSON(t, s3, idA); !bytes.Equal(got, goldenA) {
		t.Fatalf("campaign A report differs after second resume:\n%s\n--- golden ---\n%s", got, goldenA)
	}
	if got := reportJSON(t, s3, idB); !bytes.Equal(got, goldenB) {
		t.Fatalf("campaign B report differs after second resume:\n%s\n--- golden ---\n%s", got, goldenB)
	}
}

// TestResumedDoneCampaignLeaseBook resumes a data directory holding a
// campaign that finished before the restart, one still running and one
// queued behind it. The finished one comes back as a complete lease book:
// its progress reads every trial done, a late result is a duplicate of a
// drained campaign and a late heartbeat finds its lease gone. The queued
// one has no lease book: a stray result or heartbeat for it finds no
// lease.
func TestResumedDoneCampaignLeaseBook(t *testing.T) {
	done, running, queued := testSpec(3, 11), testSpec(2, 42), testSpec(2, 99)
	dir := t.TempDir()
	s1 := newServer(t, campsrv.Config{DataDir: dir, MaxActive: 1})
	idDone := submit(t, s1, done, 1, 0)
	var late fleet.TrialResult
	for n := 0; n < done.Trials; n++ {
		l := s1.AcquireLease("w")
		if l.Status != campaignd.LeaseGranted || l.Campaign != idDone {
			t.Fatalf("lease %d: %+v, want a trial of %s", n, l, idDone)
		}
		res := runLease(done, l)
		if l.Trial == 0 {
			late = res
		}
		if _, err := s1.SubmitResult(l.Campaign, l.Trial, l.ID, res); err != nil {
			t.Fatal(err)
		}
	}
	submit(t, s1, running, 1, 0) // takes the one running slot
	idQueued := submit(t, s1, queued, 1, 0)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newServer(t, campsrv.Config{DataDir: dir, Resume: true, MaxActive: 1})
	defer s2.Close()
	views := map[string]campsrv.CampaignView{}
	for _, v := range s2.Fleet().Campaigns {
		views[v.ID] = v
	}
	if v := views[idDone]; v.State != campsrv.StateDone || v.Progress.TrialsDone != done.Trials || !v.Progress.Done {
		t.Fatalf("resumed done campaign: state %s, progress %+v; want done with %d trials done",
			v.State, v.Progress, done.Trials)
	}
	if v := views[idQueued]; v.State != campsrv.StateQueued || v.Progress.TrialsDone != 0 {
		t.Fatalf("queued campaign: state %s, progress %+v", v.State, v.Progress)
	}

	ack, err := s2.SubmitResult(idDone, 0, 1, late)
	if err != nil || ack.Accepted || !ack.Duplicate || !ack.CampaignDone {
		t.Fatalf("late result for a resumed done campaign: ack %+v, err %v; want a duplicate of a drained campaign", ack, err)
	}
	if err := s2.Heartbeat(idDone, 1); !errors.Is(err, campaignd.ErrLeaseGone) {
		t.Fatalf("late heartbeat for a resumed done campaign: %v, want ErrLeaseGone", err)
	}
	stray := late
	stray.Seed = faults.DeriveSeed(queued.BaseSeed, 0)
	if ack, err := s2.SubmitResult(idQueued, 0, 1, stray); !errors.Is(err, campaignd.ErrLeaseGone) {
		t.Fatalf("stray result for a queued campaign: ack %+v, err %v; want ErrLeaseGone", ack, err)
	}
	if err := s2.Heartbeat(idQueued, 1); !errors.Is(err, campaignd.ErrLeaseGone) {
		t.Fatalf("stray heartbeat for a queued campaign: %v, want ErrLeaseGone", err)
	}
	if d, err := s2.Detail(idQueued); err != nil || d.State != campsrv.StateQueued || d.Progress.TrialsDone != 0 {
		t.Fatalf("queued campaign after stray calls: %+v, %v", d, err)
	}
}

// TestJournalCrashPointResume cuts a running campaign's journal at every
// byte offset — each state a SIGKILL mid-append can leave on disk —
// resumes the data directory and finishes the campaign. Every cut must
// resume: the report is byte-identical to the in-process golden and the
// final journal holds each trial_result exactly once. A corrupted line
// before the tail, which no crash produces, must fail with a named error.
func TestJournalCrashPointResume(t *testing.T) {
	spec := testSpec(2, 11)
	golden := inProcessGolden(t, spec)
	// Results are pure in (spec, trial): compute each once, up front.
	cached := make([]fleet.TrialResult, spec.Trials)
	for i := range cached {
		cached[i] = runLease(spec, campaignd.Lease{Trial: i, Seed: faults.DeriveSeed(spec.BaseSeed, i)})
	}
	result := func(_ campaignd.CampaignSpec, l campaignd.Lease) fleet.TrialResult { return cached[l.Trial] }

	// Record the on-disk state of a running campaign (its index) and the
	// complete journal it goes on to write.
	src := t.TempDir()
	s := newServer(t, campsrv.Config{DataDir: src})
	id := submit(t, s, spec, 1, 0)
	index, err := os.ReadFile(filepath.Join(src, "index.json"))
	if err != nil {
		t.Fatal(err)
	}
	drainWith(t, s, map[string]campaignd.CampaignSpec{id: spec}, result)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(src, id, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}

	// crashed lays out a data directory as the crash left it.
	root := t.TempDir()
	crashed := func(name string, journal []byte) string {
		dir := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Join(dir, id), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "index.json"), index, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, id, "events.jsonl"), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	// Each resume waits on fsyncs, so the cuts run as parallel subtests.
	t.Run("cuts", func(t *testing.T) {
		for cut := 0; cut <= len(journal); cut++ {
			t.Run(strconv.Itoa(cut), func(t *testing.T) {
				t.Parallel()
				dir := crashed(strconv.Itoa(cut), journal[:cut])
				s, err := campsrv.New(campsrv.Config{DataDir: dir, Resume: true})
				if err != nil {
					t.Fatalf("cut at %d of %d bytes: resume: %v", cut, len(journal), err)
				}
				if d, _ := s.Detail(id); d.State != campsrv.StateDone {
					drainWith(t, s, map[string]campaignd.CampaignSpec{id: spec}, result)
				}
				if got := reportJSON(t, s, id); !bytes.Equal(got, golden) {
					t.Fatalf("cut at %d: report differs from in-process run:\n%s", cut, got)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if got := journalReport(t, filepath.Join(dir, id, "events.jsonl"), spec); !bytes.Equal(got, golden) {
					t.Fatalf("cut at %d: journal replay differs from in-process run:\n%s", cut, got)
				}
				if err := os.RemoveAll(dir); err != nil {
					t.Fatal(err)
				}
			})
		}
	})

	// Damage before the tail is corruption, never a torn write.
	bad := append([]byte(nil), journal...)
	bad[bytes.IndexByte(bad, '\n')-1] = '#'
	if _, err := campsrv.New(campsrv.Config{DataDir: crashed("corrupt", bad), Resume: true}); !errors.Is(err, campaignd.ErrCorruptJournal) {
		t.Fatalf("corrupt journal: err %v, want ErrCorruptJournal", err)
	}
}

// TestQueuePromotionByPriority: with one running slot, the highest
// priority queued campaign is promoted first regardless of arrival order.
func TestQueuePromotionByPriority(t *testing.T) {
	s := newServer(t, campsrv.Config{MaxActive: 1})
	defer s.Close()
	specA := testSpec(1, 11)
	idA := submit(t, s, specA, 1, 0)
	idLow := submit(t, s, testSpec(1, 22), 1, 0)
	idHigh := submit(t, s, testSpec(1, 33), 5, 0)

	for _, id := range []string{idLow, idHigh} {
		if d, _ := s.Detail(id); d.State != campsrv.StateQueued {
			t.Fatalf("campaign %s: state %s, want queued", id, d.State)
		}
	}

	drainAll(t, s, map[string]campaignd.CampaignSpec{idA: specA})
	waitState(t, s, idA, campsrv.StateDone)
	if d, _ := s.Detail(idHigh); d.State != campsrv.StateRunning {
		t.Fatalf("high-priority campaign: state %s, want running after slot freed", d.State)
	}
	if d, _ := s.Detail(idLow); d.State != campsrv.StateQueued {
		t.Fatalf("low-priority campaign: state %s, want still queued", d.State)
	}
}

// TestCancel: cancelled campaigns leave the schedule, answer Gone, and
// free their slot for the queue.
func TestCancel(t *testing.T) {
	s := newServer(t, campsrv.Config{MaxActive: 1})
	defer s.Close()
	idA := submit(t, s, testSpec(4, 11), 1, 0)
	idB := submit(t, s, testSpec(4, 22), 1, 0)

	if v, err := s.Cancel(idA); err != nil || v.State != campsrv.StateCancelled {
		t.Fatalf("cancel running: %+v err %v", v, err)
	}
	waitState(t, s, idB, campsrv.StateRunning)
	if _, err := s.ReportJSON(idA); !errors.Is(err, campsrv.ErrGone) {
		t.Fatalf("cancelled report: err %v, want ErrGone", err)
	}
	if _, err := s.SubmitResult(idA, 0, 1, fleet.TrialResult{}); !errors.Is(err, campsrv.ErrGone) {
		t.Fatalf("submission to cancelled campaign: err %v, want ErrGone", err)
	}
}

// TestFreshStartRefusesPopulatedDir and resume-without-state: silently
// reusing or inventing campaign history are both hard errors.
func TestDataDirStateMismatch(t *testing.T) {
	dir := t.TempDir()
	s := newServer(t, campsrv.Config{DataDir: dir})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := campsrv.New(campsrv.Config{DataDir: dir}); err == nil {
		t.Fatal("fresh start on a populated data directory must fail")
	}
	if _, err := campsrv.New(campsrv.Config{DataDir: t.TempDir(), Resume: true}); err == nil {
		t.Fatal("resume on an empty data directory must fail")
	}
}

// TestFindingsDBCompletionHook: with Config.FindingsDB set, every finished
// campaign's replayable findings land in the database, stamped with the
// campaign ID; a second identical campaign only adds provenance, never
// duplicate records.
func TestFindingsDBCompletionHook(t *testing.T) {
	fdir := t.TempDir()
	s := newServer(t, campsrv.Config{FindingsDB: fdir})
	defer s.Close()
	spec := testSpec(2, 7)
	id := submit(t, s, spec, 1, 0)
	drainAll(t, s, map[string]campaignd.CampaignSpec{id: spec})

	db, err := findings.Open(fdir)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := db.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("completed campaign merged no findings")
	}
	for _, rec := range recs {
		if rec.Target != "bench" || rec.Oracle == "" {
			t.Fatalf("malformed record: %+v", rec)
		}
		found := false
		for _, c := range rec.Campaigns {
			if c == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("record %s lacks campaign provenance %q: %v", rec.Key(), id, rec.Campaigns)
		}
	}

	// Rerun the same campaign: dedupe means the record count is unchanged.
	id2 := submit(t, s, spec, 1, 0)
	drainAll(t, s, map[string]campaignd.CampaignSpec{id2: spec})
	recs2, err := db.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs2) != len(recs) {
		t.Fatalf("identical campaign changed record count: %d -> %d", len(recs), len(recs2))
	}
}

// TestBearerAuth: with a token configured every campaign API route demands
// it; /healthz stays open for liveness probes.
func TestBearerAuth(t *testing.T) {
	s := newServer(t, campsrv.Config{Telemetry: telemetry.New(0)})
	defer s.Close()
	hs := httptest.NewServer(s.Handler(campsrv.HandlerConfig{AuthToken: "s3cret"}))
	defer hs.Close()

	get := func(path, token string) int {
		req, err := http.NewRequest(http.MethodGet, hs.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := get("/fleet.json", ""); got != http.StatusUnauthorized {
		t.Fatalf("no token: status %d, want 401", got)
	}
	if got := get("/fleet.json", "wrong"); got != http.StatusUnauthorized {
		t.Fatalf("wrong token: status %d, want 401", got)
	}
	if got := get("/campaigns", ""); got != http.StatusUnauthorized {
		t.Fatalf("campaign list without token: status %d, want 401", got)
	}
	if got := get("/fleet.json", "s3cret"); got != http.StatusOK {
		t.Fatalf("valid token: status %d, want 200", got)
	}
	if got := get("/healthz", ""); got != http.StatusOK {
		t.Fatalf("healthz must stay tokenless: status %d, want 200", got)
	}
}

// TestWorkerTokenRoundTrip: the campaignd client attaches the bearer token
// so authenticated fleets work end to end.
func TestWorkerTokenRoundTrip(t *testing.T) {
	spec := testSpec(3, 11)
	golden := inProcessGolden(t, spec)

	s := newServer(t, campsrv.Config{})
	defer s.Close()
	hs := httptest.NewServer(s.Handler(campsrv.HandlerConfig{AuthToken: "s3cret"}))
	defer hs.Close()
	id := submit(t, s, spec, 1, 0)

	var wg sync.WaitGroup
	var workerErr error
	builds := newWorkerBuilds()
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := &campaignd.Worker{
			Client: &campaignd.Client{Base: hs.URL, Token: "s3cret"},
			Name:   "authed",
			Build:  builds.build,
		}
		workerErr = w.Run(context.Background())
	}()
	waitState(t, s, id, campsrv.StateDone)
	s.BeginShutdown()
	wg.Wait()
	if workerErr != nil {
		t.Fatalf("worker: %v", workerErr)
	}
	builds.checkWarm(t, "authed")
	if got := reportJSON(t, s, id); !bytes.Equal(got, golden) {
		t.Fatalf("authenticated campaign report differs:\n%s\n--- golden ---\n%s", got, golden)
	}
}
