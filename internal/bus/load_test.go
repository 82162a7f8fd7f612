package bus

import (
	"math/rand"
	"testing"
	"time"
)

// TestLoadWindowRunningTotal checks the O(1) running busy total against a
// recount of the buckets over a random walk of completions, reads, long
// idle gaps (partial and whole-window rotation) and resets.
func TestLoadWindowRunningTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := loadWindow{bucket: 100 * time.Millisecond}
	var now time.Duration
	for i := 0; i < 20000; i++ {
		switch r := rng.Intn(100); {
		case r < 2:
			now += time.Duration(rng.Int63n(int64(2 * time.Second))) // idle gap
		case r < 3:
			w.reset()
			now = 0
		default:
			now += time.Duration(rng.Int63n(int64(time.Millisecond)))
		}
		if rng.Intn(2) == 0 {
			w.add(now, time.Duration(rng.Int63n(int64(300*time.Microsecond))))
		}
		got := w.load(now)
		var busy time.Duration
		for _, b := range w.busy {
			busy += b
		}
		if busy != w.total {
			t.Fatalf("step %d: running total %v, buckets sum to %v", i, w.total, busy)
		}
		window := time.Duration(loadWindowBuckets) * w.bucket
		if now < window {
			window = now
		}
		want := 0.0
		if window > 0 {
			want = min(float64(busy)/float64(window), 1)
		}
		if got != want {
			t.Fatalf("step %d: load %v, want %v", i, got, want)
		}
	}
}
