package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The -trend mode renders the committed BENCH_*.json snapshots (written by
// this tool) as markdown trend tables — frames/sec and allocs/op per
// benchmark over time — so performance history is readable straight from
// the repo without re-running anything.

// loadBenchFiles reads every BENCH_*.json under dir, sorted by filename
// (the date-stamped naming makes that chronological).
func loadBenchFiles(dir string) ([]File, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var files []File
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f File
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if f.Date == "" {
			// Fall back to the filename stamp so an old snapshot without the
			// field still lands in the right column.
			f.Date = strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "BENCH_"), ".json")
		}
		files = append(files, f)
	}
	return files, nil
}

// runTrend renders the markdown trend report to w.
func runTrend(w io.Writer, dir string) error {
	files, err := loadBenchFiles(dir)
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("no BENCH_*.json snapshots under %s (run benchperf first)", dir)
	}

	// Benchmark rows in first-seen order, so new benchmarks append at the
	// bottom instead of reshuffling the table.
	var names []string
	seen := map[string]bool{}
	for _, f := range files {
		for _, r := range f.Results {
			if !seen[r.Name] {
				seen[r.Name] = true
				names = append(names, r.Name)
			}
		}
	}
	lookup := func(f File, name string) (Result, bool) {
		for _, r := range f.Results {
			if r.Name == name {
				return r, true
			}
		}
		return Result{}, false
	}

	fmt.Fprintf(w, "# Benchmark trend (%d snapshots)\n", len(files))

	fmt.Fprintf(w, "\n## Throughput (frames/sec)\n\n")
	writeTrendTable(w, files, names, func(r Result) (string, bool) {
		if r.FramesPerSec <= 0 {
			return "", false
		}
		return fmt.Sprintf("%.0f", r.FramesPerSec), true
	}, lookup)

	fmt.Fprintf(w, "\n## Allocations (allocs/op)\n\n")
	writeTrendTable(w, files, names, func(r Result) (string, bool) {
		return fmt.Sprintf("%d", r.AllocsPerOp), true
	}, lookup)

	fmt.Fprintf(w, "\n## Latency (ns/op)\n\n")
	writeTrendTable(w, files, names, func(r Result) (string, bool) {
		return fmt.Sprintf("%.0f", r.NsPerOp), true
	}, lookup)

	writeFindingsTrend(w, files)
	return nil
}

// writeFindingsTrend renders the regression-corpus size per snapshot (one
// row, dates across) when any snapshot was stamped with -findings-db; old
// snapshots without the field render as empty cells.
func writeFindingsTrend(w io.Writer, files []File) {
	any := false
	for _, f := range files {
		if f.FindingsCount > 0 {
			any = true
		}
	}
	if !any {
		return
	}
	fmt.Fprintf(w, "\n## Findings corpus (deduplicated records)\n\n")
	header, rule, row := "| |", "| --- |", "| findings |"
	for _, f := range files {
		label := f.Date
		if f.Quick {
			label += " (quick)"
		}
		header += " " + label + " |"
		rule += " ---: |"
		cell := ""
		if f.FindingsCount > 0 {
			cell = fmt.Sprintf("%d", f.FindingsCount)
		}
		row += " " + cell + " |"
	}
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, rule)
	fmt.Fprintln(w, row)
}

// writeTrendTable emits one markdown table: benchmarks down, snapshot dates
// across, cell values picked by the metric function (second return false
// means the metric does not apply to that benchmark). Rows where no
// snapshot has the metric are dropped.
func writeTrendTable(w io.Writer, files []File, names []string,
	metric func(Result) (string, bool),
	lookup func(File, string) (Result, bool)) {
	header := "| Benchmark |"
	rule := "| --- |"
	for _, f := range files {
		label := f.Date
		if f.Quick {
			label += " (quick)"
		}
		header += " " + label + " |"
		rule += " ---: |"
	}
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, rule)
	for _, name := range names {
		row := "| " + name + " |"
		any := false
		for _, f := range files {
			cell := ""
			if r, ok := lookup(f, name); ok {
				if v, applies := metric(r); applies {
					cell = v
					any = true
				}
			}
			row += " " + cell + " |"
		}
		if any {
			fmt.Fprintln(w, row)
		}
	}
}
