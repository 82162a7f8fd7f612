package observatory_test

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/guided"
	"repro/internal/observatory"
	"repro/internal/target"
	"repro/internal/telemetry"
	"repro/internal/telemetry/telemetrytest"
)

// liveRoutes are the endpoints a single guided `canfuzz -metrics` run
// serves.
var liveRoutes = []string{"/metrics", "/metrics.json", "/fuzz.json", "/healthz", "/trace.json"}

// TestLiveScrapeOfBufferedGuidedRun scrapes every route of a running
// guided campaign whose telemetry plane is buffered (the world's goroutine
// is the registry's and tracer's only writer): the `canfuzz -mode guided
// -metrics` wiring of one bench world built with a telemetry plane and
// the introspection plane, an observatory over both, and a campaign run
// to its finding or deadline. Under -race it pins that the observatory
// only reads; afterwards every route must serve exactly what the same
// seed serves when nobody scraped it.
func TestLiveScrapeOfBufferedGuidedRun(t *testing.T) {
	overlaps := telemetrytest.CheckLiveScrape(t, liveRoutes, 3, func() (http.Handler, func()) {
		tel := telemetry.New(0)
		intr := guided.NewIntrospection()
		b, err := target.Build(target.Spec{Target: "bench", Stop: true},
			core.Config{Mode: core.ModeGuided, Seed: 3, Interval: time.Millisecond},
			target.Options{Telemetry: tel, Introspection: intr})
		if err != nil {
			t.Fatal(err)
		}
		obs := observatory.New(observatory.Config{Fuzz: intr, Telemetry: tel})
		return obs.Handler(observatory.HandlerConfig{}), func() {
			b.World.Campaign.RunUntilFinding(2 * time.Minute)
		}
	})
	if overlaps == 0 {
		t.Fatal("no scrape overlapped the run")
	}
	t.Logf("%d scrapes overlapped the run", overlaps)
}
