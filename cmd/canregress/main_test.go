package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAddLogThenRun is the CLI round trip: store a minimized trigger log
// as a finding, then replay the database and require a clean pass.
func TestAddLogThenRun(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "db")
	log := filepath.Join(dir, "repro.log")
	// The minimized unlock reproducer (byte-only parser).
	if err := os.WriteFile(log, []byte("(0.001000) body0 215#20\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"add", "-db", db, "-log", log, "-oracle", "unlock-ack",
		"-campaign", "cli-test"}); err != nil {
		t.Fatalf("add: %v", err)
	}
	if err := run([]string{"run", "-db", db}); err != nil {
		t.Fatalf("run: %v", err)
	}
	// Idempotent: re-adding the same log must not error or duplicate, and
	// the same trigger as a bare ID#HEXDATA line is the same finding.
	if err := run([]string{"add", "-db", db, "-log", log, "-oracle", "unlock-ack"}); err != nil {
		t.Fatalf("re-add: %v", err)
	}
	bare := filepath.Join(dir, "repro.corpus")
	if err := os.WriteFile(bare, []byte("215#20\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"add", "-db", db, "-log", bare, "-oracle", "unlock-ack"}); err != nil {
		t.Fatalf("add bare trigger: %v", err)
	}
	entries, err := os.ReadDir(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("re-add duplicated the finding: %d files", len(entries))
	}
}

// TestRunFailsOnSilencedOracle: a trigger that no longer reproduces makes
// the suite exit non-zero — the whole point of the tool.
func TestRunFailsOnSilencedOracle(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "db")
	log := filepath.Join(dir, "noop.log")
	// An inert frame: replays fine, never unlocks anything.
	if err := os.WriteFile(log, []byte("(0.001000) body0 300#FF\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"add", "-db", db, "-log", log, "-oracle", "unlock-ack"}); err != nil {
		t.Fatalf("add: %v", err)
	}
	err := run([]string{"run", "-db", db})
	if err == nil {
		t.Fatal("suite with a silenced oracle succeeded")
	}
	if !strings.Contains(err.Error(), "regression suite failed") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestAddRefusesReportFile: a fleet report carries no generator config, so
// add refuses it by name instead of storing records with a default config.
func TestAddRefusesReportFile(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "report.json")
	if err := os.WriteFile(report, []byte(`{"trials":0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"add", "-db", filepath.Join(dir, "db"), report})
	if !errors.Is(err, errReportSource) {
		t.Fatalf("add REPORT.json: err = %v, want errReportSource", err)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"bogus"},
		{"add", "-db", t.TempDir()}, // nothing to merge
		{"add", "-log", "x.log"},    // no -db
		{"add", "-db", t.TempDir(), "-log", "x.log"}, // -log without -oracle
		{"run"},                      // no -db
		{"run", "-db", t.TempDir()},  // empty database
		{"diff", "-a", "", "-b", ""}, // no -db for replay sides
		{"diff", "-db", t.TempDir(), "-a", "/nope.json"}, // side is neither file nor overrides
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%q) succeeded, want error", args)
		}
	}
}
