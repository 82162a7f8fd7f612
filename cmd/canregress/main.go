// Command canregress is the regression side of the findings pipeline
// (DESIGN §13): it maintains the deduplicated findings database and
// replays it against the current tree.
//
//	canregress add  -db DIR [sources...]   merge findings into the database
//	canregress run  -db DIR                replay every finding, assert oracles
//	canregress diff -db DIR -a ... -b ...  compare two configurations
//
// Sources for add: a canfuzzd data directory (-campaigns) and a trigger
// file (-log: a canreplay-compatible capture log or ID#HEXDATA lines, with
// -oracle naming the oracle it reproduces and -target/-check/... the world
// it ran against). A saved report carries no generator config, so its
// findings go in through a deterministic rerun with canfuzz -findings-db.
//
// run exits non-zero when any finding fails or errors — a silenced oracle
// is a regression. diff replays the corpus under two configurations (a
// saved report file, or an override list like "check=length"; empty means
// the record's own context) and prints every behavioural divergence.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/can"
	"repro/internal/capture"
	"repro/internal/findings"
	"repro/internal/target"
	"repro/internal/telemetry"
)

var logger = telemetry.NewCLILogger(os.Stderr, "canregress", slog.LevelInfo)

// errReportSource refuses a report file given to add: a fleet report
// carries no generator config, so records built from it would replay a
// different stream than the campaign ran.
var errReportSource = errors.New("report files are not a source: a report carries no generator config; " +
	"rerun the campaign with canfuzz ... -findings-db DIR to record its findings")

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "canregress:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: canregress add|run|diff [flags]")
	}
	switch args[0] {
	case "add":
		return runAdd(args[1:])
	case "run":
		return runRun(args[1:])
	case "diff":
		return runDiff(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want add, run or diff)", args[0])
	}
}

// runAdd merges findings from the given sources into the database.
func runAdd(args []string) error {
	fs := flag.NewFlagSet("canregress add", flag.ContinueOnError)
	dbDir := fs.String("db", "", "findings database directory (required)")
	campaignsDir := fs.String("campaigns", "", "canfuzzd data directory to scan (one journal per campaign subdirectory)")
	logFile := fs.String("log", "", "trigger to store as one finding, as a capture log or ID#HEXDATA lines (requires -oracle)")
	oracleName := fs.String("oracle", "", "oracle the -log trigger reproduces")
	detail := fs.String("detail", "", "finding detail for the -log trigger")
	targetName := fs.String("target", "bench", "target world for -log triggers: bench, cluster or vehicle")
	busName := fs.String("bus", "body", "vehicle bus for -log triggers")
	check := fs.String("check", "byte", "bench BCM unlock check for -log triggers: byte, length or twobytes")
	recovery := fs.Bool("recover", false, "findings were observed with the resilience policy armed")
	interval := fs.Duration("interval", time.Millisecond, "trigger playback interval")
	mode := fs.String("mode", "", "generation mode provenance (random, mutate, sweep, guided)")
	campaignID := fs.String("campaign", "", "campaign identifier provenance")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dbDir == "" {
		return fmt.Errorf("add: -db is required")
	}
	if (*logFile == "") != (*oracleName == "") {
		return fmt.Errorf("add: -log and -oracle go together")
	}
	if _, err := target.ParseCheckMode(*check); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("add: %w: %s", errReportSource, strings.Join(fs.Args(), " "))
	}
	if *campaignsDir == "" && *logFile == "" {
		return fmt.Errorf("add: nothing to merge (give -campaigns or -log)")
	}

	db, err := findings.Open(*dbDir)
	if err != nil {
		return err
	}
	ctx := findings.Context{
		Target:   *targetName,
		Bus:      *busName,
		BCMCheck: *check,
		Recovery: *recovery,
	}

	var recs []findings.Record
	if *campaignsDir != "" {
		sub, err := findings.FromDataDir(*campaignsDir)
		if err != nil {
			return fmt.Errorf("add -campaigns %s: %w", *campaignsDir, err)
		}
		logger.Info("campaign directory scanned", "dir", *campaignsDir, "findings", len(sub))
		recs = append(recs, sub...)
	}
	if *logFile != "" {
		rec, err := recordFromTriggerLog(*logFile, *oracleName, *detail, ctx, *interval,
			findings.Provenance{Source: "canregress-add", Campaign: *campaignID, Mode: *mode, ReplayLog: *logFile})
		if err != nil {
			return fmt.Errorf("add -log %s: %w", *logFile, err)
		}
		recs = append(recs, rec)
	}
	if *campaignID != "" {
		for i := range recs {
			if len(recs[i].Campaigns) == 0 {
				recs[i].Campaigns = []string{*campaignID}
			}
		}
	}

	fresh, err := db.MergeAll(recs)
	if err != nil {
		return err
	}
	fmt.Printf("merged %d finding(s): %d new, %d deduplicated\n", len(recs), fresh, len(recs)-fresh)
	return nil
}

// recordFromTriggerLog converts a trigger file (the minimizer's
// -minimize-out capture log, or ID#HEXDATA lines) into a trigger record.
func recordFromTriggerLog(path, oracleName, detail string, ctx findings.Context, interval time.Duration, prov findings.Provenance) (findings.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return findings.Record{}, err
	}
	defer f.Close()
	trigger, err := capture.ReadFrames(f)
	if err != nil {
		return findings.Record{}, err
	}
	var frames []string
	for _, fr := range trigger {
		frames = append(frames, string(can.AppendFrame(nil, fr)))
	}
	if len(frames) == 0 {
		return findings.Record{}, fmt.Errorf("log holds no frames")
	}
	return findings.FromTrigger(oracleName, detail, frames, ctx, 0, interval, prov), nil
}

// runRun replays the database and reports per-finding outcomes.
func runRun(args []string) error {
	fs := flag.NewFlagSet("canregress run", flag.ContinueOnError)
	dbDir := fs.String("db", "", "findings database directory (required)")
	targetName := fs.String("target", "", "replay only records of this target (empty: all)")
	workers := fs.Int("workers", 1, "replay concurrency (report bytes are identical at any count)")
	attempts := fs.Int("attempts", 2, "replays per finding (same seed; >1 catches nondeterminism as flaky)")
	override := fs.String("override", "", `context overrides, e.g. "check=length,recovery=true,bus=powertrain"`)
	jsonOut := fs.Bool("json", false, "write the suite report as JSON to stdout")
	outFile := fs.String("out", "", "also write the JSON report to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rep, err := replaySuite(*dbDir, *targetName, *workers, *attempts, *override)
	if err != nil {
		return err
	}
	if *outFile != "" {
		if err := writeReportFile(*outFile, rep); err != nil {
			return err
		}
	}
	if *jsonOut {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			return err
		}
	} else {
		printSuite(rep)
	}
	if !rep.OK() {
		return fmt.Errorf("regression suite failed: %d fail, %d error of %d finding(s)",
			rep.Fail, rep.Errors, rep.Records)
	}
	return nil
}

// replaySuite loads, filters and replays the database.
func replaySuite(dbDir, targetName string, workers, attempts int, override string) (*findings.SuiteReport, error) {
	if dbDir == "" {
		return nil, fmt.Errorf("-db is required")
	}
	ov, err := findings.ParseOverrides(override)
	if err != nil {
		return nil, err
	}
	db, err := findings.Open(dbDir)
	if err != nil {
		return nil, err
	}
	recs, err := db.Load()
	if err != nil {
		return nil, err
	}
	if targetName != "" {
		kept := recs[:0]
		for _, r := range recs {
			if r.Target == targetName {
				kept = append(kept, r)
			}
		}
		recs = kept
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("database %s holds no matching findings", dbDir)
	}
	return findings.RunSuite(recs, findings.SuiteConfig{
		Workers:   workers,
		Attempts:  attempts,
		Overrides: ov,
	}), nil
}

// runDiff replays the corpus under two configurations and prints the
// behavioural divergences.
func runDiff(args []string) error {
	fs := flag.NewFlagSet("canregress diff", flag.ContinueOnError)
	dbDir := fs.String("db", "", "findings database directory (required unless both sides are report files)")
	sideA := fs.String("a", "", `side A: a saved canregress report file, or overrides like "check=length" ("" = the records' own context)`)
	sideB := fs.String("b", "", `side B: same forms as -a`)
	workers := fs.Int("workers", 1, "replay concurrency")
	attempts := fs.Int("attempts", 1, "replays per finding per side")
	jsonOut := fs.Bool("json", false, "write divergences as JSON to stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	repA, err := diffSide(*dbDir, *sideA, *workers, *attempts)
	if err != nil {
		return fmt.Errorf("diff -a: %w", err)
	}
	repB, err := diffSide(*dbDir, *sideB, *workers, *attempts)
	if err != nil {
		return fmt.Errorf("diff -b: %w", err)
	}
	divs := findings.DiffSuites(repA, repB)
	if *jsonOut {
		return writeJSON(os.Stdout, divs)
	}
	if len(divs) == 0 {
		fmt.Println("no divergence: both configurations behave identically on the stored corpus")
		return nil
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "KEY\tORACLE\tKIND\tDETAIL")
	for _, d := range divs {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", d.Key, d.Oracle, d.Kind, d.Detail)
	}
	w.Flush()
	fmt.Printf("%d divergence(s)\n", len(divs))
	return nil
}

// diffSide resolves one -a/-b value: a saved report file is loaded, any
// other value is parsed as overrides and replayed fresh.
func diffSide(dbDir, side string, workers, attempts int) (*findings.SuiteReport, error) {
	if side != "" && !strings.Contains(side, "=") {
		f, err := os.Open(side)
		if err != nil {
			return nil, fmt.Errorf("%q is neither a report file nor key=value overrides: %w", side, err)
		}
		defer f.Close()
		return findings.ReadSuiteReport(f)
	}
	return replaySuite(dbDir, "", workers, attempts, side)
}

// printSuite renders the table reporter.
func printSuite(rep *findings.SuiteReport) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "KEY\tTARGET\tORACLE\tOUTCOME\tFIRED\tOBSERVED")
	for _, res := range rep.Results {
		observed := res.ObservedOracle
		if res.Err != "" {
			observed = res.Err
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%d/%d\t%s\n",
			res.Key, res.Target, res.Oracle, res.Outcome, res.Fired, res.Attempts, observed)
	}
	w.Flush()
	fmt.Printf("%d finding(s): %d pass, %d fail, %d flaky, %d error\n",
		rep.Records, rep.Pass, rep.Fail, rep.Flaky, rep.Errors)
}

// writeReportFile writes the JSON report to a file.
func writeReportFile(path string, rep *findings.SuiteReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := rep.WriteJSON(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// writeJSON writes any value as indented JSON.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
