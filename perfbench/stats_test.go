package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/bcm"
	"repro/internal/can"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending, so percentile must sort
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	v, beyond, err := percentile(seq(100), 0.9)
	if err != nil || v != 90 || beyond != 10 {
		t.Fatalf("p90 of 1..100 = %v, %d beyond, %v; want 90, 10 beyond", v, beyond, err)
	}
	v, beyond, err = percentile(seq(1000), 0.99)
	if err != nil || v != 990 || beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %v, %d beyond, %v; want 990, 10 beyond", v, beyond, err)
	}
	v, beyond, err = percentile(seq(21), 0.5)
	if err != nil || v != 11 || beyond != 10 {
		t.Fatalf("p50 of 1..21 = %v, %d beyond, %v; want 11, 10 beyond", v, beyond, err)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, tc := range []struct {
		n int
		q float64
	}{{99, 0.9}, {50, 0.9}, {999, 0.99}, {19, 0.5}, {0, 0.5}} {
		if v, beyond, err := percentile(seq(tc.n), tc.q); err == nil {
			t.Errorf("p%g of %d samples = %v with %d beyond; want refusal", tc.q*100, tc.n, v, beyond)
		}
	}
	if _, _, err := percentile(seq(100), 1); err == nil {
		t.Error("q=1 accepted")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

func TestSelfTimeSubtractsCoveredPart(t *testing.T) {
	parent := interval{0, 100}
	self, covered, sum := selfTime(parent, []interval{{10, 20}, {30, 45}})
	if self != 75 || covered != 25 || sum != 25 {
		t.Fatalf("disjoint children: self %d covered %d sum %d; want 75 25 25", self, covered, sum)
	}
	// Overlapping children and children escaping the parent are merged
	// and clipped, so covered < sum flags the broken accounting.
	self, covered, sum = selfTime(parent, []interval{{10, 20}, {15, 30}, {90, 120}, {-5, 5}})
	if self != 65 || covered != 35 || sum != 65 {
		t.Fatalf("overlapping children: self %d covered %d sum %d; want 65 35 65", self, covered, sum)
	}
	if self, _, _ := selfTime(parent, nil); self != 100 {
		t.Fatalf("no children: self %d", self)
	}
}

func TestTracerAccountsForEveryTrial(t *testing.T) {
	clockPairNs = 0
	tr := newTracer()
	tr.beginTrial(0)
	tr.span("fleet.reset", 0, 10, false)
	tr.addCalls("core.gen", 64, 2, 20)            // 10ns per sampled call
	tr.record("campsrv.lease_handler", 50, false) // another goroutine: not a child
	tr.endTrial(1000)
	if err := tr.integrity(); err != nil {
		t.Fatal(err)
	}
	if got := tr.nsPerCall("core.gen"); got != 10 {
		t.Fatalf("core.gen per call = %v, want 10", got)
	}
	// 1000 span - 10 reset - 64 calls * 10ns.
	if got := tr.selfNs(); got != 350 {
		t.Fatalf("self = %v, want 350", got)
	}

	tr.beginTrial(2000)
	tr.addCalls("core.gen", 200, 1, 10) // the estimate outgrows the spans
	tr.endTrial(2100)
	if err := tr.integrity(); err == nil {
		t.Fatal("sampled calls longer than the trials passed the integrity check")
	}

	tr = newTracer()
	tr.beginTrial(200)
	tr.span("a", 200, 260, false)
	tr.span("b", 250, 280, false) // overlaps a
	tr.endTrial(300)
	if err := tr.integrity(); err == nil {
		t.Fatal("overlapping children passed the integrity check")
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"setup_s", "core.gen_ns_per_frame", "a-b.c_d", "9lives", strings.Repeat("x", 64)} {
		if !validName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "ms%", "é", strings.Repeat("x", 65)} {
		if validName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's per-layer list and
// the metrics the traced run reports identical, and every name legal.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the run reports %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, run reports %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	for _, m := range doc.EndToEnd {
		if !validName(m.Name) {
			t.Errorf("end-to-end name %q invalid", m.Name)
		}
	}
	ws := workloads()
	for _, w := range doc.Workloads {
		if ws[w.Name] == nil {
			t.Errorf("workload %q not implemented", w.Name)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\n"
	mb, err := parseVmHWM(strings.NewReader(status))
	if err != nil || mb != 20 {
		t.Fatalf("VmHWM 20480 kB = %v MB, %v", mb, err)
	}
	for _, bad := range []string{"VmRSS:\t 1 kB\n", "VmHWM:\t 12 MB\n", "VmHWM:\t x kB\n", "VmHWM:\t 0 kB\n"} {
		if _, err := parseVmHWM(strings.NewReader(bad)); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	if mb, err := peakRSSMB(); err != nil || mb <= 0 {
		t.Fatalf("live peak RSS = %v, %v", mb, err)
	}
}

func TestUnlockCommand(t *testing.T) {
	frame := func(id can.ID, data ...byte) can.Frame {
		f, err := can.New(id, data)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	short := frame(0x215, 0x20)
	cases := []struct {
		f     can.Frame
		check bcm.CheckMode
		want  bool
	}{
		{short, bcm.CheckByteOnly, true},
		{frame(0x215, 0x21), bcm.CheckByteOnly, false},
		{frame(0x214, 0x20), bcm.CheckByteOnly, false},
		{short, bcm.CheckByteAndLength, false},
		{frame(0x215, 0x20, 1, 2, 3, 4, 5, 6), bcm.CheckByteAndLength, true},
		{frame(0x215, 0x20, 1, 2, 3, 4, 5, 6), bcm.CheckTwoBytes, false},
		{frame(0x215, 0x20, 0x5F, 2, 3, 4, 5, 6), bcm.CheckTwoBytes, true},
	}
	for i, c := range cases {
		if got := unlockCommand(c.f, c.check); got != c.want {
			t.Errorf("case %d: unlockCommand = %v, want %v", i, got, c.want)
		}
	}
}
