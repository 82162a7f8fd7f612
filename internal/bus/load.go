package bus

import "time"

// Sliding-window bus-load accounting. Bus.Load() reports utilisation since
// construction, which flattens bursts over a long campaign; the
// can_bus_load_ratio gauge reports utilisation over the recent virtual-time
// window, which is what a live dashboard wants (and what the paper's §V
// pacing discussion is about: at 1 ms pacing the fuzzer alone holds the bus
// near 25%).

// DefaultLoadWindow is the span the load gauge averages over.
const DefaultLoadWindow = time.Second

// loadWindowBuckets is the rotation granularity of the window.
const loadWindowBuckets = 10

// loadWindow accumulates busy time into rotating virtual-time buckets.
type loadWindow struct {
	bucket time.Duration // span of one bucket
	busy   [loadWindowBuckets]time.Duration
	total  time.Duration // sum of busy, kept by add and rotate
	cur    int           // index of the bucket being filled
	curEnd time.Duration // exclusive end instant of cur
}

// rotate advances the ring so cur covers the bucket containing now,
// clearing buckets that fell out of the window. The common no-rotation
// case is a single comparison — this runs on every frame completion.
func (w *loadWindow) rotate(now time.Duration) {
	if now < w.curEnd {
		return
	}
	steps := int64((now-w.curEnd)/w.bucket) + 1
	if steps >= loadWindowBuckets {
		// The whole window aged out: clear everything and realign.
		w.busy = [loadWindowBuckets]time.Duration{}
		w.total = 0
		w.cur = 0
		w.curEnd = (now/w.bucket + 1) * w.bucket
		return
	}
	for i := int64(0); i < steps; i++ {
		w.cur = (w.cur + 1) % loadWindowBuckets
		w.total -= w.busy[w.cur]
		w.busy[w.cur] = 0
	}
	w.curEnd += time.Duration(steps) * w.bucket
}

// reset clears the accumulated window, keeping the configured bucket
// span. Used by Bus.Reset.
func (w *loadWindow) reset() {
	*w = loadWindow{bucket: w.bucket}
}

// add credits dur of busy time at completion instant now.
func (w *loadWindow) add(now, dur time.Duration) {
	w.rotate(now)
	w.busy[w.cur] += dur
	w.total += dur
}

// load returns busy/window over the retained buckets, clamped to [0,1].
// The busy time is the running total, so a read costs O(1).
// Early in a run (elapsed < window) it divides by elapsed time instead, so
// a bus that has been saturated from t=0 reads 1.0, not a fraction.
func (w *loadWindow) load(now time.Duration) float64 {
	w.rotate(now)
	window := time.Duration(loadWindowBuckets) * w.bucket
	if now < window {
		window = now
	}
	if window <= 0 {
		return 0
	}
	l := float64(w.total) / float64(window)
	if l > 1 {
		l = 1
	}
	return l
}
