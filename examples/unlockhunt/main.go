// Unlockhunt reproduces the paper's bench-top experiment end-to-end (Figs
// 10-13 and Table V): a three-node testbed carrying a smartphone-app
// remote unlock feature is fuzzed blind until the doors open, under both
// of Table V's BCM parser variants.
//
// Run with: go run ./examples/unlockhunt [-runs 5]
package main

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/bcm"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/target"
	"repro/internal/testbench"
)

func main() {
	runs := flag.Int("runs", 5, "fuzz runs per parser variant (paper: 12)")
	baseSeed := flag.Int64("seed", 431, "base seed; run i uses seed+i")
	flag.Parse()

	// First show normal operation: the paired app unlocks via the head
	// unit (Fig 13's PC app).
	demoNormalOperation()

	// Then the attack: a fuzzer with no knowledge of the command message.
	for _, check := range []bcm.CheckMode{bcm.CheckByteOnly, bcm.CheckByteAndLength} {
		var stats analysis.RunStats
		for i := 0; i < *runs; i++ {
			b, err := target.Build(target.Spec{Target: "bench", Check: check, Stop: true},
				core.Config{Seed: *baseSeed + int64(i)}, target.Options{})
			if err != nil {
				panic(err)
			}
			campaign := b.World.Campaign
			finding, ok := campaign.RunUntilFinding(12 * time.Hour)
			if !ok {
				fmt.Printf("  run %d: timed out\n", i+1)
				continue
			}
			stats.Times = append(stats.Times, finding.Elapsed)
			fmt.Printf("  run %d: unlocked after %v (%d frames)\n",
				i+1, finding.Elapsed.Round(time.Second), campaign.FramesSent())
		}
		fmt.Printf("BCM check %q: times(s) %s -> mean %v\n\n",
			check, stats.Seconds(), stats.Mean().Round(time.Second))
	}
}

func demoNormalOperation() {
	sched := clock.New()
	bench := testbench.New(sched, testbench.Config{AckUnlock: true})
	if err := bench.HeadUnit.AppUnlock(testbench.AppToken); err != nil {
		panic(err)
	}
	sched.RunFor(100 * time.Millisecond)
	fmt.Printf("app unlock: LED on = %v (normal operation)\n", bench.BCM.Unlocked())
	if err := bench.HeadUnit.AppLock(testbench.AppToken); err != nil {
		panic(err)
	}
	sched.RunFor(100 * time.Millisecond)
	fmt.Printf("app lock:   LED on = %v\n\n", bench.BCM.Unlocked())
}
