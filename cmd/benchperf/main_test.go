package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBaseline stores results as a trajectory file and returns its path.
func writeBaseline(t *testing.T, results ...Result) string {
	t.Helper()
	buf, err := json.Marshal(File{Results: results})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareToleranceBand(t *testing.T) {
	base := writeBaseline(t, Result{Name: "Campaign", NsPerOp: 1000})
	for _, tc := range []struct {
		ns      float64
		wantErr bool
	}{
		{ns: 500},                 // faster
		{ns: 1000},                // unchanged
		{ns: 1149},                // +14.9%, inside the 15% band
		{ns: 1151, wantErr: true}, // +15.1%
		{ns: 2000, wantErr: true},
	} {
		err := compare(File{Results: []Result{{Name: "Campaign", NsPerOp: tc.ns}}}, base)
		if (err != nil) != tc.wantErr {
			t.Errorf("ns/op %v vs 1000 at 15%%: err = %v, want error %v", tc.ns, err, tc.wantErr)
		}
	}
}

func TestCompareAllocSlack(t *testing.T) {
	base := writeBaseline(t,
		Result{Name: "Fleet", NsPerOp: 1000, AllocsPerOp: 1300},
		Result{Name: "BusTx", NsPerOp: 100, AllocsPerOp: 0})
	for _, tc := range []struct {
		name    string
		allocs  int64
		wantErr bool
	}{
		{name: "Fleet", allocs: 1300},
		{name: "Fleet", allocs: 1326},                // 1300 + 2% slack
		{name: "Fleet", allocs: 1327, wantErr: true}, // one past the slack
		{name: "BusTx", allocs: 0},
		{name: "BusTx", allocs: 1, wantErr: true}, // zero-alloc baselines get no slack
	} {
		res := Result{Name: tc.name, NsPerOp: 1, AllocsPerOp: tc.allocs}
		err := compare(File{Results: []Result{res}}, base)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s allocs/op %d: err = %v, want error %v", tc.name, tc.allocs, err, tc.wantErr)
		}
	}
}

func TestCompareSkipsUnknownAndRejectsMissingBaseline(t *testing.T) {
	base := writeBaseline(t, Result{Name: "Campaign", NsPerOp: 1000})
	if err := compare(File{Results: []Result{{Name: "NewWorkload", NsPerOp: 1e9, AllocsPerOp: 1e6}}}, base); err != nil {
		t.Errorf("a workload without a baseline entry must be skipped, got %v", err)
	}
	if err := compare(File{}, filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing baseline file accepted")
	}
	// A baseline row for a workload benchperf no longer runs must fail the
	// gate, even when the run itself skipped that workload (-only).
	stale := writeBaseline(t, Result{Name: "Campaign", NsPerOp: 1000}, Result{Name: "Deleted", NsPerOp: 1})
	err := compare(File{Results: []Result{{Name: "Campaign", NsPerOp: 1000}}}, stale)
	if err == nil || !strings.Contains(err.Error(), "Deleted") {
		t.Errorf("baseline row without a workload: err = %v, want an error naming it", err)
	}
}

func TestCheckSpeedupRatios(t *testing.T) {
	base := writeBaseline(t,
		Result{Name: "Campaign", FramesPerSec: 1e6},
		Result{Name: "Fleet", AllocsPerOp: 1000})
	run := func(fps float64, fleetAllocs int64) error {
		return checkSpeedup(File{Results: []Result{
			{Name: "Campaign", FramesPerSec: fps},
			{Name: "Fleet", AllocsPerOp: fleetAllocs},
		}}, base)
	}
	for _, tc := range []struct {
		fps         float64
		fleetAllocs int64
		wantErr     bool
	}{
		{fps: 3e6, fleetAllocs: 200},                   // exactly 3x and 5x
		{fps: 4e6, fleetAllocs: 0},                     // zero allocs counts as one: 1000x
		{fps: 2.99e6, fleetAllocs: 200, wantErr: true}, // speedup below floor
		{fps: 3e6, fleetAllocs: 201, wantErr: true},    // reduction 4.98x
		{fps: 0, fleetAllocs: 200, wantErr: true},      // frames/sec missing
	} {
		if err := run(tc.fps, tc.fleetAllocs); (err != nil) != tc.wantErr {
			t.Errorf("fps %v fleet allocs %d: err = %v, want error %v", tc.fps, tc.fleetAllocs, err, tc.wantErr)
		}
	}
}

func TestCheckSpeedupMissingWorkload(t *testing.T) {
	full := writeBaseline(t,
		Result{Name: "Campaign", FramesPerSec: 1e6},
		Result{Name: "Fleet", AllocsPerOp: 1000})
	err := checkSpeedup(File{Results: []Result{{Name: "Campaign", FramesPerSec: 5e6}}}, full)
	if err == nil || !strings.Contains(err.Error(), `"Fleet" missing`) {
		t.Errorf("run without Fleet: err = %v, want a missing-workload error", err)
	}
	noCampaign := writeBaseline(t, Result{Name: "Fleet", AllocsPerOp: 1000})
	err = checkSpeedup(File{Results: []Result{
		{Name: "Campaign", FramesPerSec: 5e6}, {Name: "Fleet", AllocsPerOp: 1},
	}}, noCampaign)
	if err == nil || !strings.Contains(err.Error(), `"Campaign" missing`) {
		t.Errorf("baseline without Campaign: err = %v, want a missing-workload error", err)
	}
}

func TestGuidedTickRatio(t *testing.T) {
	for _, tc := range []struct {
		results []Result
		want    float64
	}{
		// 1000 frames in 400 µs is 400 ns a frame; a 600 ns guided tick is 1.5x.
		{[]Result{{Name: "Campaign", NsPerOp: 400e3, FramesPerSec: 2.5e6}, {Name: "Fleet", FramesPerSec: 9}, {Name: "GuidedStep", NsPerOp: 600, FramesPerSec: 1e9 / 600}}, 1.5},
		{[]Result{{Name: "GuidedStep", FramesPerSec: 1e6}}, 0}, // -only without Campaign
		{[]Result{{Name: "Campaign", FramesPerSec: 1e6}}, 0},
		{nil, 0},
	} {
		if got := guidedTickRatio(tc.results); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("guidedTickRatio(%v) = %v, want %v", tc.results, got, tc.want)
		}
	}
}

// TestTelemetryOverhead pins the telemetry cost as added ns per frame:
// 1000 frames in 400 µs blind and in 500 µs instrumented is 100 ns more a
// frame, whatever either path costs alone.
func TestTelemetryOverhead(t *testing.T) {
	for _, tc := range []struct {
		results []Result
		want    float64
	}{
		{[]Result{{Name: "Campaign", NsPerOp: 400e3, FramesPerSec: 2.5e6}, {Name: "Fleet", NsPerOp: 9}, {Name: "CampaignTelemetry", NsPerOp: 500e3, FramesPerSec: 2e6}}, 100},
		// A faster shared path leaves the difference alone (the old
		// ratio read 1.25 above and 1.5 here).
		{[]Result{{Name: "Campaign", NsPerOp: 200e3, FramesPerSec: 5e6}, {Name: "CampaignTelemetry", NsPerOp: 300e3, FramesPerSec: 1e9 / 300}}, 100},
		{[]Result{{Name: "CampaignTelemetry", NsPerOp: 500e3, FramesPerSec: 2e6}}, 0}, // -only without Campaign
		{[]Result{{Name: "Campaign", NsPerOp: 400e3, FramesPerSec: 2.5e6}}, 0},
		{nil, 0},
	} {
		if got := telemetryNsPerFrame(tc.results); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("telemetryNsPerFrame(%v) = %v, want %v", tc.results, got, tc.want)
		}
	}
}
