package experiments

import (
	"time"

	"repro/internal/bcm"
	"repro/internal/core"
)

// GuidedVsRandomResult compares time-to-unlock distributions for the blind
// random fuzzer (the paper's §V design) and the coverage-guided engine on
// the same Table V testbed with the same per-run seeds.
type GuidedVsRandomResult struct {
	// Check is the BCM parser variant both arms fuzzed.
	Check bcm.CheckMode
	// Random and Guided hold each arm's run statistics in Table V row form.
	Random Table5Row
	Guided Table5Row
	// MergedCorpus is the union of the guided trials' evolved corpora
	// (fleet-merged in trial-index order).
	MergedCorpus []string
	// MedianSpeedup is random median / guided median (0 when either arm has
	// no finding runs).
	MedianSpeedup float64
}

// GuidedVsRandom runs `runs` unlock experiments per arm with seeds
// baseSeed+i — the same legacy seed scheme as Table5, so the random arm's
// numbers are directly comparable to the published rows — and returns both
// distributions. Both arms go through Table5's row runner, the guided arm
// with core.ModeGuided, so each arm recycles its bench worlds across runs.
// The guided engine closes the feedback loop Werquin et al. describe; on
// the byte-only parser it reaches the unlock well under the blind fuzzer's
// median because one frame on the command identifier admits a corpus
// parent whose mutations keep hammering that identifier.
func GuidedVsRandom(baseSeed int64, runs int, maxPerRun time.Duration) GuidedVsRandomResult {
	const check = bcm.CheckByteOnly
	res := GuidedVsRandomResult{Check: check}
	res.Random, _ = runUnlockRow(check, runs, maxPerRun, func(i int) core.Config {
		return core.Config{Seed: baseSeed + int64(i)}
	})
	res.Guided, res.MergedCorpus = runUnlockRow(check, runs, maxPerRun, func(i int) core.Config {
		return core.Config{Seed: baseSeed + int64(i), Mode: core.ModeGuided}
	})
	if rm, gm := res.Random.Stats.Median(), res.Guided.Stats.Median(); rm > 0 && gm > 0 {
		res.MedianSpeedup = float64(rm) / float64(gm)
	}
	return res
}
