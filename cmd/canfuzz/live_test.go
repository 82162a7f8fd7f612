package main

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/guided"
	"repro/internal/observatory"
	targetPkg "repro/internal/target"
	"repro/internal/telemetry"
	"repro/internal/telemetry/telemetrytest"
)

// liveRoutes are the routes a `canfuzz -metrics` single run serves that
// read its telemetry plane.
var liveRoutes = []string{"/metrics", "/metrics.json", "/healthz", "/trace.json"}

// TestLiveScrapeOfBitsRun scrapes the endpoint of a bits-mode run. Under
// -race it pins that the run writes its plane buffered and the endpoint
// only reads; afterwards every route must serve exactly what an
// unscraped run serves.
func TestLiveScrapeOfBitsRun(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	telemetrytest.CheckLiveScrape(t, liveRoutes, 3, func() (http.Handler, func()) {
		tel := telemetry.New(0)
		return observatory.New(observatory.Config{Telemetry: tel}).Handler(observatory.HandlerConfig{}), func() {
			if err := runBitsMode(context.Background(), logger, 9, 2*time.Second, time.Millisecond, 2, nil, tel, "", "", 0); err != nil {
				t.Error(err)
			}
		}
	})
}

// TestLiveScrapeOfSingleRunPastFinding scrapes the endpoint of a
// `canfuzz -target bench -mode guided -metrics` run that stops at its
// finding long before -dur ends, while the bench's own periodic traffic
// goes on writing the plane. Under -race it pins that the plane stays
// buffered until the run, not the campaign, ends; afterwards every route
// must serve exactly what an unscraped run serves.
func TestLiveScrapeOfSingleRunPastFinding(t *testing.T) {
	const dur = 10 * time.Minute
	routes := []string{"/metrics", "/metrics.json", "/healthz", "/trace.json", "/fuzz.json"}
	telemetrytest.CheckLiveScrape(t, routes, 3, func() (http.Handler, func()) {
		tel := telemetry.New(0)
		intr := guided.NewIntrospection()
		world, _, err := newWorld(targetPkg.Spec{Target: "bench", Stop: true},
			core.Config{Mode: core.ModeGuided, Seed: 3, Interval: time.Millisecond}, tel, nil, intr)
		if err != nil {
			t.Fatal(err)
		}
		obs := observatory.New(observatory.Config{Fuzz: intr, Telemetry: tel})
		return obs.Handler(observatory.HandlerConfig{}), func() {
			runCampaign(world.Sched, world.Campaign, tel, dur)
			f := world.Campaign.Findings()
			if len(f) == 0 || f[0].Elapsed > dur/2 {
				t.Errorf("findings %v: want one well before %v", f, dur)
			}
		}
	})
}
