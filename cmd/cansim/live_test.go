package main

import (
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry"
	"repro/internal/telemetry/telemetrytest"
	"repro/internal/vehicle"
)

// liveRoutes are the routes `cansim -metrics` serves.
var liveRoutes = []string{"/metrics", "/metrics.json", "/healthz", "/trace.json"}

// TestLiveScrapeOfCansimRun scrapes the endpoint of an instrumented
// vehicle run in both output modes. Under -race it pins that the run
// writes its plane buffered and the endpoint only reads; afterwards every
// route must serve exactly what an unscraped run of the same seed serves.
func TestLiveScrapeOfCansimRun(t *testing.T) {
	for _, mode := range []string{"traffic", "signals"} {
		t.Run(mode, func(t *testing.T) {
			telemetrytest.CheckLiveScrape(t, liveRoutes, 3, func() (http.Handler, func()) {
				sched := clock.New()
				v := vehicle.New(sched, vehicle.Config{Seed: 4})
				tel := telemetry.New(0)
				v.Instrument(tel)
				return telemetry.Handler(tel), func() {
					if err := simulate(io.Discard, sched, v, tel, mode, vehicle.OBDBody, 3*time.Second); err != nil {
						t.Error(err)
					}
				}
			})
		})
	}
}
