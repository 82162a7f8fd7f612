package repro

// The root benchmarks time the simulation, not the paper: one campaign
// with and without telemetry, and the fleet at 1, 2, 4 and NumCPU
// workers. The paper's numbers come from cmd/benchreport, whose default
// report testdata/benchreport_golden.txt pins byte for byte.
//
//	go test -run '^$' -bench . -benchmem .

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/target"
	"repro/internal/telemetry"
	"repro/internal/testbench"
)

// campaignBench is the standard one-virtual-second bench-fuzzing workload,
// built once and recycled with the world-reuse machinery: every op resets
// the world in place and replays the same seed. The optional telemetry
// plane makes it the telemetry-overhead yardstick: BenchmarkCampaign
// exercises the nil-receiver no-op hooks, and BenchmarkCampaignTelemetry
// the live counters and tracer.
type campaignBench struct {
	sched    *clock.Scheduler
	bench    *testbench.Bench
	campaign *core.Campaign
}

func newCampaignBench(tb testing.TB, tel *telemetry.Telemetry) *campaignBench {
	sched := clock.New()
	bench := testbench.New(sched, testbench.Config{AckUnlock: true})
	bench.Instrument(tel)
	var opts []core.Option
	if tel != nil {
		opts = append(opts, core.WithTelemetry(tel))
	}
	campaign, err := core.NewCampaign(sched, bench.AttachFuzzer("fuzzer"), core.Config{
		Seed: 7, Interval: time.Millisecond,
	}, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	campaign.AddOracle(bench.UnlockOracle())
	return &campaignBench{sched: sched, bench: bench, campaign: campaign}
}

// run executes one virtual second of fuzzing on the recycled world.
func (cb *campaignBench) run() uint64 {
	cb.bench.Reset()
	cb.campaign.Reset(7)
	cb.campaign.Start()
	cb.sched.RunUntil(time.Second)
	cb.campaign.Stop()
	return cb.campaign.FramesSent()
}

// BenchmarkCampaign is the uninstrumented baseline: every telemetry hook
// compiled in but nil. Compare with BenchmarkCampaignTelemetry to bound
// the cost of the no-op path (budget: <5%).
func BenchmarkCampaign(b *testing.B) {
	cb := newCampaignBench(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	var frames uint64
	for i := 0; i < b.N; i++ {
		frames = cb.run()
	}
	b.ReportMetric(float64(frames), "frames")
}

// BenchmarkCampaignTelemetry runs the same campaign with metrics and the
// event tracer live.
func BenchmarkCampaignTelemetry(b *testing.B) {
	cb := newCampaignBench(b, telemetry.New(0))
	b.ReportAllocs()
	b.ResetTimer()
	var frames uint64
	for i := 0; i < b.N; i++ {
		frames = cb.run()
	}
	b.ReportMetric(float64(frames), "frames")
}

// fleetTable5Factory builds the Table V workload for the fleet benchmark:
// one full blind bench-unlock world per trial.
func fleetTable5Factory(spec fleet.TrialSpec) (*fleet.World, error) {
	b, err := target.Build(unlockSpec, core.Config{Seed: spec.Seed}, target.Options{})
	if err != nil {
		return nil, err
	}
	return b.World, nil
}

// BenchmarkFleet measures fleet scaling on the Table V workload: the same
// trial set at 1, 2, 4 and NumCPU workers. Per-trial results are identical
// at every width (the determinism guarantee), so the trials/sec metric
// isolates pure orchestration speedup — expect near-linear scaling until
// the trial count stops dividing evenly across the pool.
func BenchmarkFleet(b *testing.B) {
	trials := 12 // the paper's Table V run count
	if testing.Short() {
		trials = 4
	}
	widths := []int{1, 2, 4, runtime.NumCPU()}
	seen := map[int]bool{}
	for _, workers := range widths {
		if workers < 1 || seen[workers] {
			continue
		}
		seen[workers] = true
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			// The pool carries reset-capable worlds across iterations, so
			// after the first run every trial recycles a warm world — the
			// production shape for repeated fleets over one target config.
			pool := &fleet.WorldPool{}
			var rep *fleet.Report
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = fleet.Run(fleet.Config{
					Trials:      trials,
					Workers:     workers,
					BaseSeed:    100,
					MaxPerTrial: 12 * time.Hour,
					Pool:        pool,
				}, fleetTable5Factory)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.FoundFindings), "findings")
			b.ReportMetric(rep.VirtualTimeTotal.Seconds(), "virtual-sec")
			b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}
