package campaignd_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/campaignd"
	"repro/internal/fleet"
)

// BenchmarkLeaseBook drains one campaign through the lease book alone:
// one in-process worker alternating AcquireLease and Submit, with no HTTP,
// journal or world. ns/trial at 64 000 trials against 1 000 shows whether
// a lease-book call grows with the campaign.
func BenchmarkLeaseBook(b *testing.B) {
	for _, trials := range []int{1_000, 64_000} {
		b.Run(fmt.Sprintf("trials=%d", trials), func(b *testing.B) {
			spec := campaignd.CampaignSpec{
				Target: "bench", Trials: trials, BaseSeed: 1,
				MaxPerTrialNanos: int64(200 * time.Millisecond),
			}
			for b.Loop() {
				coord, err := campaignd.New(campaignd.Config{Spec: spec})
				if err != nil {
					b.Fatal(err)
				}
				for {
					l := coord.AcquireLease("w")
					if l.Status != campaignd.LeaseGranted {
						break
					}
					res := fleet.TrialResult{Trial: l.Trial, Seed: l.Seed, Status: fleet.StatusTimeout}
					if err := coord.Submit(l.Trial, l.ID, res); err != nil {
						b.Fatal(err)
					}
				}
				if coord.Report() == nil {
					b.Fatal("campaign did not complete")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*trials), "ns/trial")
		})
	}
}
