package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the benchreport golden file")

// reportGolden is the committed default report: every figure, table and
// ablation number EXPERIMENTS cites.
var reportGolden = filepath.Join("..", "..", "testdata", "benchreport_golden.txt")

// TestReportGolden pins the default report byte for byte. A change that
// moves a paper number regenerates it deliberately with
//
//	go test ./cmd/benchreport -run TestReportGolden -update
//
// and updates EXPERIMENTS in the same commit.
func TestReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the default report simulates hours of virtual fuzzing")
	}
	if raceEnabled {
		t.Skip("the default report is too slow under the race detector")
	}
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(reportGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(reportGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("report line %d differs from %s:\n got: %s\nwant: %s", i+1, reportGolden, gl[i], wl[i])
			}
		}
		t.Fatalf("report has %d lines, %s has %d", len(gl), reportGolden, len(wl))
	}
}

func TestQuickReportRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("quick report still simulates minutes of virtual fuzzing")
	}
	if err := run([]string{"-quick", "-runs", "1", "-seed", "1"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestBarClamps(t *testing.T) {
	if bar(-5) != "" {
		t.Fatal("negative bar")
	}
	if len(bar(1000)) != 50 {
		t.Fatal("bar not clamped")
	}
}
