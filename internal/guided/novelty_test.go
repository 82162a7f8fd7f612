package guided

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/can"
	"repro/internal/capture"
	"repro/internal/core"
)

func TestNoveltyMapBounded(t *testing.T) {
	var n noveltyMap
	rng := rand.New(rand.NewPCG(1, 0))
	for i := 0; i < 10*mapBits; i++ {
		n.observe(rng.Uint64())
	}
	if c := n.count(); c > mapBits {
		t.Fatalf("count %d exceeds map size %d", c, mapBits)
	}
}

func TestNoveltyMapObserveOnce(t *testing.T) {
	var n noveltyMap
	if !n.observe(42) {
		t.Fatal("first observation not novel")
	}
	if n.observe(42) {
		t.Fatal("repeat observation reported novel")
	}
	if n.count() != 1 {
		t.Fatalf("count = %d, want 1", n.count())
	}
}

func TestBucketize(t *testing.T) {
	cases := []struct{ in, want uint64 }{
		{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}, {7, 4},
		{8, 5}, {15, 5}, {16, 6}, {31, 6}, {32, 7}, {127, 7},
		{128, 8}, {1 << 40, 8},
	}
	for _, c := range cases {
		if got := bucketize(c.in); got != c.want {
			t.Errorf("bucketize(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestHashFeatureOrderSensitive(t *testing.T) {
	if hashFeature(featProbe, 1, 2) == hashFeature(featProbe, 2, 1) {
		t.Fatal("hashFeature must not be symmetric in its parts")
	}
	if hashFeature(featProbe, 1, 2) == hashFeature(featResponse, 1, 2) {
		t.Fatal("feature kinds must separate hash spaces")
	}
	// The pre-mixed kinds leave every feature hash — and so every novelty
	// bit, corpus and campaign report — where the three-mix form put it.
	for _, c := range []struct{ got, want uint64 }{
		{hashFeature(featProbe, 1, 2), 0x854e570c612cc1d},
		{hashFeature(featProbe, 2, 1), 0x417432b1d06758f7},
		{hashFeature(featResponse, 1, 2), 0x1403f0b03987a94d},
	} {
		if c.got != c.want {
			t.Errorf("feature hash %#x, want %#x", c.got, c.want)
		}
	}
}

// TestProbeMemoExact pins the probe memo: a probe whose bucket did not
// move since the previous tick is skipped, which must report exactly what
// observing it again would have.
func TestProbeMemoExact(t *testing.T) {
	var v uint64
	e, err := NewEngine(core.Config{Seed: 1}, WithProbes(Probe{Name: "p", Fn: func() uint64 { return v }}))
	if err != nil {
		t.Fatal(err)
	}
	// A -> B -> A -> B -> A: novel on the first two ticks only.
	const a, b = 0, 9 // buckets 0 and 5
	for i, tick := range []struct{ v, novel uint64 }{{a, 1}, {b, 1}, {a, 0}, {b, 0}, {a, 0}} {
		v = tick.v
		if got := e.harvest(); got != tick.novel {
			t.Fatalf("tick %d (value %d): %d novel, want %d", i, v, got, tick.novel)
		}
	}
	// Reset clears the map and the memo: A, the memo's last bucket, is new
	// again.
	e.Reset(1)
	v = a
	if got := e.harvest(); got != 1 {
		t.Fatalf("after Reset: %d novel, want 1", got)
	}

	// Against an unmemoised reference over a random walk of two probes.
	rng := rand.New(rand.NewPCG(7, 0))
	var vals [2]uint64
	e, err = NewEngine(core.Config{Seed: 1}, WithProbes(
		Probe{Name: "x", Fn: func() uint64 { return vals[0] }},
		Probe{Name: "y", Fn: func() uint64 { return vals[1] }}))
	if err != nil {
		t.Fatal(err)
	}
	var ref noveltyMap
	for tick := 0; tick < 2000; tick++ {
		if tick == 1000 {
			e.Reset(2)
			ref = noveltyMap{}
		}
		for i := range vals {
			if rng.IntN(4) == 0 {
				vals[i] = uint64(rng.IntN(200))
			}
		}
		var want uint64
		for i, name := range []string{"x", "y"} {
			if ref.observe(hashFeature(featProbe, hashName(name), bucketize(vals[i]))) {
				want++
			}
		}
		if got := e.harvest(); got != want {
			t.Fatalf("tick %d: %d novel, reference %d", tick, got, want)
		}
	}
}

func TestCorpusAddDedupeAndEnergy(t *testing.T) {
	c := newCorpus()
	f := can.Frame{ID: 0x215, Len: 1, Data: [8]byte{0x20}}
	if !c.add(f, 1) {
		t.Fatal("first add not admitted")
	}
	if c.add(f, 3) {
		t.Fatal("duplicate admitted twice")
	}
	if c.size() != 1 {
		t.Fatalf("size = %d, want 1", c.size())
	}
	if e := c.entries[0].energy; e != 4 {
		t.Fatalf("energy = %d, want 4 (1+3)", e)
	}
}

func TestCorpusEvictionDeterministic(t *testing.T) {
	c := newCorpus()
	for i := 0; i < maxCorpus; i++ {
		f := can.Frame{ID: can.ID(i % 0x7FF), Len: 2, Data: [8]byte{byte(i), byte(i >> 8)}}
		c.add(f, uint64(2+i)) // strictly increasing energy
	}
	low := c.entries[0].frame // lowest energy: the first entry
	c.add(can.Frame{ID: 0x7FF, Len: 1, Data: [8]byte{0xFF}}, 1)
	if c.size() != maxCorpus {
		t.Fatalf("size = %d, want cap %d", c.size(), maxCorpus)
	}
	for _, e := range c.entries {
		if e.frame == low {
			t.Fatal("lowest-energy entry not evicted")
		}
	}
	// index map must stay consistent after the shift.
	for key, i := range c.index {
		if got := c.entries[i].frame; indexKey(got) != key {
			t.Fatalf("index[%v] -> entry %v", key, got)
		}
	}
}

func TestCorpusPickEnergyWeighted(t *testing.T) {
	c := newCorpus()
	hot := can.Frame{ID: 0x215, Len: 1, Data: [8]byte{0x20}}
	cold := can.Frame{ID: 0x100, Len: 1, Data: [8]byte{0x01}}
	c.add(hot, 99)
	c.add(cold, 1)
	rng := rand.New(rand.NewPCG(7, 0))
	hits := 0
	for i := 0; i < 1000; i++ {
		if c.entries[c.pick(rng.Uint64N(c.total))].frame == hot {
			hits++
		}
	}
	if hits < 900 {
		t.Fatalf("hot frame picked %d/1000, want >= 900 at 99:1 energy", hits)
	}
}

// twoPassPick is the pick the running total replaced, kept as the
// reference: sum every energy, draw against the sum, walk to the draw.
func twoPassPick(c *corpus, rng *rand.Rand) int {
	var total uint64
	for _, e := range c.entries {
		total += e.energy
	}
	x := rng.Uint64N(total)
	for i, e := range c.entries {
		if x < e.energy {
			return i
		}
		x -= e.energy
	}
	return len(c.entries) - 1
}

// TestCorpusPickRunningTotalDifferential drives random admissions,
// top-ups and evictions and checks, after every step, that the running
// total equals the sum of the energies and that the same draw picks the
// same index as the two-pass reference.
func TestCorpusPickRunningTotalDifferential(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	c := newCorpus()
	var evictions int
	for step := 0; step < 4000; step++ {
		switch op := rng.IntN(4); {
		case op < 2 || c.size() == 0: // admit a fresh frame, evicting when full
			f := can.Frame{ID: can.ID(rng.IntN(0x800)), Len: 2,
				Data: [8]byte{byte(step), byte(step >> 8)}}
			if c.size() == maxCorpus {
				evictions++
			}
			c.add(f, rng.Uint64N(40))
		case op == 2: // top up an existing entry
			c.add(c.entries[rng.IntN(c.size())].frame, 1+rng.Uint64N(40))
		default: // reset now and then, so the total restarts from zero
			if rng.IntN(500) == 0 {
				c.reset()
			}
		}
		var sum uint64
		for _, e := range c.entries {
			sum += e.energy
		}
		if c.total != sum {
			t.Fatalf("step %d: running total %d, energies sum to %d", step, c.total, sum)
		}
		if c.size() == 0 {
			continue
		}
		pcg := rand.NewPCG(uint64(step), 9)
		ref, cp := *pcg, *pcg
		want := twoPassPick(c, rand.New(&ref))
		if got := c.pick(rand.New(&cp).Uint64N(c.total)); got != want {
			t.Fatalf("step %d: pick = %d, two-pass reference = %d", step, got, want)
		}
	}
	if evictions == 0 {
		t.Fatal("no eviction exercised")
	}
}

func TestCorpusFileRoundTrip(t *testing.T) {
	lines := []string{"215#205F010000012000", "100#", "7FF#DEADBEEF"}
	var buf bytes.Buffer
	if err := WriteCorpus(&buf, lines); err != nil {
		t.Fatal(err)
	}
	frames, err := capture.ReadFrames(strings.NewReader(buf.String() + "\n# comment\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != len(lines) {
		t.Fatalf("read %d frames, want %d", len(frames), len(lines))
	}
	for i, f := range frames {
		if got := string(can.AppendFrame(nil, f)); got != lines[i] {
			t.Errorf("frame %d = %q, want %q", i, got, lines[i])
		}
	}
	if _, err := capture.ReadFrames(strings.NewReader("bogus line\n")); err == nil {
		t.Fatal("malformed corpus accepted")
	}
}
