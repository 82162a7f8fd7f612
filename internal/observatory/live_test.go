package observatory_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/guided"
	"repro/internal/observatory"
	"repro/internal/target"
	"repro/internal/telemetry"
)

// liveRoutes are the endpoints a single guided `canfuzz -metrics` run
// serves.
var liveRoutes = []string{"/metrics", "/metrics.json", "/fuzz.json", "/healthz", "/trace.json"}

// runLiveGuided is the `canfuzz -mode guided -metrics` wiring: one bench
// world built with a telemetry plane and the introspection plane, an
// observatory over both, and a campaign run to its finding or deadline.
// With scrapers > 0 that many goroutines GET every live route in a loop
// for the whole run. It returns every route's body once the run stopped,
// and how many scrapes overlapped the run.
func runLiveGuided(t *testing.T, scrapers int) (map[string]string, int64) {
	t.Helper()
	tel := telemetry.New(0)
	intr := guided.NewIntrospection()
	b, err := target.Build(target.Spec{Target: "bench", Stop: true},
		core.Config{Mode: core.ModeGuided, Seed: 3, Interval: time.Millisecond},
		target.Options{Telemetry: tel, Introspection: intr})
	if err != nil {
		t.Fatal(err)
	}
	obs := observatory.New(observatory.Config{Fuzz: intr, Telemetry: tel})
	srv := httptest.NewServer(obs.Handler(observatory.HandlerConfig{}))
	defer srv.Close()

	get := func(route string) (string, error) {
		resp, err := http.Get(srv.URL + route)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", route, resp.StatusCode)
		}
		return string(body), err
	}

	var (
		running  atomic.Bool
		overlaps atomic.Int64
		wg       sync.WaitGroup
		ready    sync.WaitGroup
	)
	running.Store(true)
	done := make(chan struct{})
	for i := 0; i < scrapers; i++ {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			first := true
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				if _, err := get(liveRoutes[n%len(liveRoutes)]); err != nil {
					t.Error(err)
					return
				}
				if running.Load() {
					overlaps.Add(1)
				}
				if first {
					first = false
					ready.Done()
				}
			}
		}()
	}
	ready.Wait() // every scraper is live before the run starts
	b.World.Campaign.RunUntilFinding(2 * time.Minute)
	running.Store(false)
	close(done)
	wg.Wait()

	bodies := make(map[string]string, len(liveRoutes))
	for _, route := range liveRoutes {
		body, err := get(route)
		if err != nil {
			t.Fatal(err)
		}
		bodies[route] = body
	}
	return bodies, overlaps.Load()
}

// TestLiveScrapeOfBufferedGuidedRun scrapes every route of a running
// guided campaign whose telemetry plane is buffered (the world's goroutine
// is the registry's and tracer's only writer). Under -race it pins that
// the observatory only reads; afterwards every route must serve exactly
// what the same seed serves when nobody scraped it.
func TestLiveScrapeOfBufferedGuidedRun(t *testing.T) {
	quiet, _ := runLiveGuided(t, 0)
	scraped, overlaps := runLiveGuided(t, 3)
	if overlaps == 0 {
		t.Fatal("no scrape overlapped the run")
	}
	for _, route := range liveRoutes {
		if scraped[route] != quiet[route] {
			t.Errorf("%s after a scraped run differs from the unscraped run:\n%s\nwant:\n%s",
				route, scraped[route], quiet[route])
		}
	}
	t.Logf("%d scrapes overlapped the run", overlaps)
}
