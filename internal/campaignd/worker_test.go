// In-package, unlike the rest of the suite: these tests inspect the
// worker's per-campaign cache. The fake service below stands in for
// campsrv, which imports this package.
package campaignd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/bcm"
	"repro/internal/can"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/signal"
	"repro/internal/testbench"
)

// fakeCampaign is one campaign the fake service schedules.
type fakeCampaign struct {
	id   string
	spec CampaignSpec
	// grants, when > 0, makes the campaign one no worker can finish: it
	// has no lease book, is granted this many leases for trial 0 and then
	// vanishes, answering 410 from then on.
	grants int
	coord  *Coordinator
	// cancelAt, when > 0, cancels the campaign as it grants the lease after
	// this many accepted results, so that trial's submission answers 410.
	cancelAt  int
	accepted  int
	cancelled bool
	// ttl, when > 0, is the lease TTL the campaign's coordinator grants.
	ttl time.Duration
}

// fakeService serves its campaigns one after another over the worker
// protocol, then answers every lease poll with "done".
type fakeService struct {
	mu    sync.Mutex
	queue []*fakeCampaign
	byID  map[string]*fakeCampaign

	heartbeats     int // heartbeat requests served
	lateHeartbeats int // of those, served after a result request arrived
	results        int // result requests received
}

func newFakeService(t *testing.T, campaigns ...*fakeCampaign) *fakeService {
	t.Helper()
	s := &fakeService{queue: campaigns, byID: map[string]*fakeCampaign{}}
	for _, c := range campaigns {
		if c.grants == 0 {
			coord, err := New(Config{Spec: c.spec, LeaseTTL: c.ttl})
			if err != nil {
				t.Fatal(err)
			}
			c.coord = coord
		}
		s.byID[c.id] = c
	}
	return s
}

func (s *fakeService) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := r.URL.Query()
	c := s.byID[q.Get("campaign")]
	switch r.URL.Path {
	case "/campaignd/lease":
		for len(s.queue) > 0 && s.queue[0].coord != nil && (s.queue[0].cancelled || s.queue[0].coord.Report() != nil) {
			s.queue = s.queue[1:]
		}
		if len(s.queue) == 0 {
			json.NewEncoder(w).Encode(WireLease(Lease{Status: LeaseDone}))
			return
		}
		c := s.queue[0]
		l := Lease{Status: LeaseGranted}
		if c.coord == nil {
			if c.grants--; c.grants == 0 {
				s.queue = s.queue[1:]
			}
		} else {
			l = c.coord.AcquireLease(q.Get("worker"))
			c.cancelled = c.cancelAt > 0 && c.accepted == c.cancelAt
		}
		l.Campaign = c.id
		json.NewEncoder(w).Encode(WireLease(l))
	case "/campaignd/spec":
		if c == nil || (c.coord == nil && c.grants == 0) || c.cancelled {
			http.Error(w, "campaign gone", http.StatusGone)
			return
		}
		json.NewEncoder(w).Encode(c.spec)
	case "/campaignd/heartbeat":
		s.heartbeats++
		if s.results > 0 {
			s.lateHeartbeats++
		}
		w.WriteHeader(http.StatusNoContent)
	case "/campaignd/result":
		s.results++
		if c == nil || c.coord == nil || c.cancelled {
			http.Error(w, "campaign gone", http.StatusGone)
			return
		}
		trial, _ := strconv.Atoi(q.Get("trial"))
		lease, _ := strconv.ParseUint(q.Get("lease"), 10, 64)
		var res fleet.TrialResult
		if err := json.NewDecoder(r.Body).Decode(&res); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := c.coord.Submit(trial, lease, res); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		c.accepted++
		json.NewEncoder(w).Encode(SubmitAck{Accepted: true, CampaignDone: c.coord.Report() != nil})
	default:
		http.NotFound(w, r)
	}
}

// resettableBench builds the Table V bench world with a Reset hook and
// counts the builds per campaign base seed. It assembles the world by hand
// as target.Build does: target imports this package.
func resettableBench(baseSeed int64, builds map[int64]int) fleet.TargetFactory {
	return func(spec fleet.TrialSpec) (*fleet.World, error) {
		builds[baseSeed]++
		sched := clock.New()
		bench := testbench.New(sched, testbench.Config{Check: bcm.CheckByteOnly, AckUnlock: true})
		campaign, err := core.NewCampaign(sched, bench.AttachFuzzer("fuzzer"),
			core.Config{Seed: spec.Seed, TargetIDs: []can.ID{signal.IDBodyCommand}}, core.WithStopOnFinding())
		if err != nil {
			return nil, err
		}
		campaign.AddOracle(bench.UnlockOracle())
		return &fleet.World{Sched: sched, Campaign: campaign, Reset: func(ts fleet.TrialSpec) error {
			bench.Reset()
			campaign.Reset(ts.Seed)
			return nil
		}}, nil
	}
}

func benchSpec(trials int, baseSeed int64) CampaignSpec {
	return CampaignSpec{
		Target:           "bench",
		Trials:           trials,
		BaseSeed:         baseSeed,
		MaxPerTrialNanos: int64(30 * time.Minute),
	}
}

func reportJSON(t *testing.T, rep *fleet.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWorkerForgetsFinishedCampaigns: one worker is first leased twice a
// campaign whose spec does not build, which vanishes between the two
// leases, then serves three campaigns in sequence — two drain, the third
// is cancelled while one of its trials computes. The worker never caches
// the unbuildable campaign, builds each other campaign's world once,
// holds no cache entry for a campaign it saw drain or go, and its drained
// campaigns' reports equal the cold in-process run.
func TestWorkerForgetsFinishedCampaigns(t *testing.T) {
	bad := benchSpec(1, 44)
	bad.Target = "unbuildable"
	a := &fakeCampaign{id: "a", spec: benchSpec(3, 11)}
	b := &fakeCampaign{id: "b", spec: benchSpec(4, 22)}
	c := &fakeCampaign{id: "c", spec: benchSpec(4, 33), cancelAt: 2}
	hs := httptest.NewServer(newFakeService(t, &fakeCampaign{id: "bad", spec: bad, grants: 2}, a, b, c))
	defer hs.Close()

	builds := map[int64]int{}
	var cachedAtBuild []int
	var w *Worker
	w = &Worker{
		Client: &Client{Base: hs.URL},
		Name:   "w",
		Build: func(spec CampaignSpec) (Runtime, error) {
			// Build runs on the worker goroutine: the cache is safe to read.
			cachedAtBuild = append(cachedAtBuild, len(w.runtimes))
			if spec.Target != "bench" {
				return Runtime{}, fmt.Errorf("unknown target %q", spec.Target)
			}
			return Runtime{Factory: resettableBench(spec.BaseSeed, builds), FleetCfg: spec.FleetConfig()}, nil
		},
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	if len(w.runtimes) != 0 {
		t.Fatalf("worker still caches %d runtimes after every campaign ended", len(w.runtimes))
	}
	// One failed build for the unbuildable campaign (its second spec fetch
	// answers gone), then one per served campaign, each into an empty cache.
	if fmt.Sprint(cachedAtBuild) != "[0 0 0 0]" {
		t.Fatalf("cache sizes at each runtime build: %v, want [0 0 0 0]", cachedAtBuild)
	}
	for _, fc := range []*fakeCampaign{a, b, c} {
		if builds[fc.spec.BaseSeed] != 1 {
			t.Fatalf("campaign %s: factory called %d times, want once", fc.id, builds[fc.spec.BaseSeed])
		}
	}
	if c.accepted != c.cancelAt {
		t.Fatalf("cancelled campaign accepted %d results, want %d", c.accepted, c.cancelAt)
	}
	for _, fc := range []*fakeCampaign{a, b} {
		cfg := fc.spec.FleetConfig()
		cfg.Workers = 1
		warm := resettableBench(0, map[int64]int{})
		cold, err := fleet.Run(cfg, func(spec fleet.TrialSpec) (*fleet.World, error) {
			w, err := warm(spec)
			if w != nil {
				w.Reset = nil // a fresh world per trial: the cold oracle
			}
			return w, err
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := reportJSON(t, fc.coord.Report()), reportJSON(t, cold); !bytes.Equal(got, want) {
			t.Fatalf("campaign %s: worker report differs from the cold in-process run:\n%s\n--- cold ---\n%s",
				fc.id, got, want)
		}
	}
}

// TestWorkerHeartbeatsDuringTrial: with a 30 ms lease TTL and a trial that
// takes 120 ms, the worker heartbeats every 10 ms while the trial
// computes, and none of its heartbeats reaches the service after the
// result request, nor after Run returns.
func TestWorkerHeartbeatsDuringTrial(t *testing.T) {
	const ttl = 30 * time.Millisecond
	svc := newFakeService(t, &fakeCampaign{id: "a", spec: benchSpec(1, 11), ttl: ttl})
	hs := httptest.NewServer(svc)
	defer hs.Close()
	w := &Worker{
		Client: &Client{Base: hs.URL},
		Name:   "w",
		Build: func(spec CampaignSpec) (Runtime, error) {
			bench := resettableBench(spec.BaseSeed, map[int64]int{})
			slow := func(ts fleet.TrialSpec) (*fleet.World, error) {
				time.Sleep(4 * ttl)
				return bench(ts)
			}
			return Runtime{Factory: slow, FleetCfg: spec.FleetConfig()}, nil
		},
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	svc.mu.Lock()
	during, late, results := svc.heartbeats, svc.lateHeartbeats, svc.results
	svc.mu.Unlock()
	if results != 1 || during < 2 || late != 0 {
		t.Fatalf("%d heartbeats before the result, %d after it, %d results; want >= 2, 0, 1",
			during, late, results)
	}
	time.Sleep(3 * ttl)
	svc.mu.Lock()
	defer svc.mu.Unlock()
	if svc.heartbeats != during {
		t.Fatalf("%d heartbeats after Run returned", svc.heartbeats-during)
	}
}
