// Package telemetrytest holds the live-scrape harness that the race tests
// of the telemetry endpoints share: a simulation runs while other
// goroutines read its plane over HTTP.
package telemetrytest

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// CheckLiveScrape runs a simulation twice, each time on a fresh world
// from setup, which returns the world's endpoint handler and the function
// that runs it. The first run goes unscraped; during the second, scrapers
// goroutines GET the routes in turn, in a loop. Under -race this pins
// that the run writes its plane only in ways a concurrent reader may
// observe. Afterwards every route must serve exactly what it served after
// the unscraped run. It returns how many scrapes completed while the
// second run was going.
func CheckLiveScrape(t testing.TB, routes []string, scrapers int, setup func() (http.Handler, func())) int64 {
	t.Helper()
	quiet, _ := scrapeDuring(t, routes, 0, setup)
	scraped, overlaps := scrapeDuring(t, routes, scrapers, setup)
	for _, route := range routes {
		if scraped[route] != quiet[route] {
			t.Errorf("%s after a scraped run differs from the unscraped run:\n%s\nwant:\n%s",
				route, scraped[route], quiet[route])
		}
	}
	return overlaps
}

// scrapeDuring builds a world with setup and runs it while scrapers
// goroutines GET the routes in a loop, from before the run starts until
// it returns. It returns every route's body as served after the run, and
// how many scrapes completed while it ran.
func scrapeDuring(t testing.TB, routes []string, scrapers int, setup func() (http.Handler, func())) (map[string]string, int64) {
	t.Helper()
	h, run := setup()
	srv := httptest.NewServer(h)
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
				if _, err := get(routes[n%len(routes)]); err != nil {
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
	run()
	running.Store(false)
	close(done)
	wg.Wait()

	bodies := make(map[string]string, len(routes))
	for _, route := range routes {
		body, err := get(route)
		if err != nil {
			t.Fatal(err)
		}
		bodies[route] = body
	}
	return bodies, overlaps.Load()
}
