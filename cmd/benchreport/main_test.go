package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
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

// TestReportFlags checks that -runs and -seed are read, and that the
// defaults are the paper's 12 runs at seed 100 the golden pins.
// TestReportGolden already runs every section, so this renders none.
func TestReportFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		runs int
		seed int64
	}{
		{nil, 12, 100},
		{[]string{"-runs", "1", "-seed", "1"}, 1, 1},
		{[]string{"-seed=-7"}, 12, -7},
	} {
		runs, seed, err := parseFlags(tc.args)
		if err != nil || runs != tc.runs || seed != tc.seed {
			t.Errorf("parseFlags(%q) = %d, %d, %v; want %d, %d", tc.args, runs, seed, err, tc.runs, tc.seed)
		}
	}
	for _, args := range [][]string{{"-runs", "x"}, {"-bogus"}} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%q) accepted a bad flag", args)
		}
	}
}

// experimentsDoc is the paper-versus-measured write-up that quotes the
// golden report.
var experimentsDoc = filepath.Join("..", "..", "EXPERIMENTS.md")

// reportHeader is a report section header cited in backticks.
var reportHeader = regexp.MustCompile("`(== [^`]+ ==)`")

// TestExperimentsQuoteGolden keeps EXPERIMENTS.md and the golden report
// from drifting apart, without running the report. Every fenced block but
// the sh commands quotes whole, contiguous lines of the golden; every
// section header EXPERIMENTS cites in backticks is a line of the golden;
// and every row of a table whose last column is "Regenerated by" cites
// one there.
func TestExperimentsQuoteGolden(t *testing.T) {
	golden, err := os.ReadFile(reportGolden)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	report := "\n" + string(golden)
	hasLines := func(lines []string) bool {
		return strings.Contains(report, "\n"+strings.Join(lines, "\n")+"\n")
	}

	var block []string
	inBlock, quote, blocks := false, false, 0
	regen := false // inside a table whose last column is "Regenerated by"
	for n, line := range strings.Split(string(doc), "\n") {
		switch {
		case strings.HasPrefix(line, "```"):
			if !inBlock {
				inBlock, quote, block = true, strings.TrimPrefix(line, "```") != "sh", nil
				continue
			}
			inBlock = false
			if quote {
				blocks++
				if !hasLines(block) {
					t.Errorf("%s:%d: quoted block is not a run of lines of %s:\n%s",
						experimentsDoc, n+1, reportGolden, strings.Join(block, "\n"))
				}
			}
		case inBlock:
			block = append(block, line)
		case strings.HasPrefix(line, "|"):
			cells := strings.Split(strings.TrimSuffix(line, "|"), "|")
			last := strings.TrimSpace(cells[len(cells)-1])
			switch {
			case last == "Regenerated by":
				regen = true
			case regen && !strings.HasPrefix(last, "---") && !reportHeader.MatchString(last):
				t.Errorf("%s:%d: row cites no report section: %s", experimentsDoc, n+1, last)
			}
		default:
			regen = false
		}
	}
	if blocks == 0 {
		t.Fatalf("%s quotes no block of the report", experimentsDoc)
	}
	cited := reportHeader.FindAllStringSubmatch(string(doc), -1)
	if len(cited) == 0 {
		t.Fatalf("%s cites no report section", experimentsDoc)
	}
	for _, m := range cited {
		if !hasLines([]string{m[1]}) {
			t.Errorf("%s cites %s, which %s does not print", experimentsDoc, m[0], reportGolden)
		}
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
