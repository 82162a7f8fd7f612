// External test package: the fleet factories here use target, which
// imports fleet — the same cycle the fleet suite avoids.
package observatory_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bcm"
	"repro/internal/can"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/guided"
	"repro/internal/observatory"
	"repro/internal/signal"
	"repro/internal/target"
	"repro/internal/telemetry"
)

// unlockSpec is the Table V bench world with the loose (byte-only) BCM
// parser, its campaign stopping at the unlock.
var unlockSpec = target.Spec{Target: "bench", Check: bcm.CheckByteOnly, Stop: true}

// unlockFactory builds the Table V bench world per trial, targeted so each
// trial unlocks within virtual seconds.
func unlockFactory(spec fleet.TrialSpec) (*fleet.World, error) {
	b, err := target.Build(unlockSpec,
		core.Config{Seed: spec.Seed, TargetIDs: []can.ID{signal.IDBodyCommand}}, target.Options{})
	if err != nil {
		return nil, err
	}
	return &fleet.World{Sched: b.World.Sched, Campaign: b.World.Campaign}, nil
}

// guidedFactory is unlockFactory with the coverage-guided engine, wired to
// the introspection plane.
func guidedFactory(intr *guided.Introspection) fleet.TargetFactory {
	return func(spec fleet.TrialSpec) (*fleet.World, error) {
		b, err := target.Build(unlockSpec,
			core.Config{Seed: spec.Seed, TargetIDs: []can.ID{signal.IDBodyCommand}, Mode: core.ModeGuided}, target.Options{Introspection: intr})
		if err != nil {
			return nil, err
		}
		return &fleet.World{Sched: b.World.Sched, Campaign: b.World.Campaign, Corpus: b.World.Corpus}, nil
	}
}

// runObserved runs a small unlock fleet with a file-less sink attached and
// returns the sink plus the observatory.
func runObserved(t *testing.T, trials, workers int, buf *bytes.Buffer) (*observatory.Observatory, *fleet.Report) {
	t.Helper()
	sink := observatory.NewSink(buf)
	obs := observatory.New(observatory.Config{Sink: sink})
	rep, err := fleet.Run(fleet.Config{
		Trials: trials, Workers: workers, BaseSeed: 11,
		MaxPerTrial: 30 * time.Minute, Observer: obs,
	}, unlockFactory)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	return obs, rep
}

func sortedLines(t *testing.T, buf *bytes.Buffer) []string {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	sort.Strings(lines)
	return lines
}

func TestEventLogSortedDeterminism(t *testing.T) {
	// The tentpole acceptance property: the sorted event log is
	// byte-identical at workers=1 and workers=NumCPU. Emission order is
	// scheduling-dependent; content is not.
	var seq, par bytes.Buffer
	runObserved(t, 8, 1, &seq)
	runObserved(t, 8, runtime.NumCPU(), &par)

	a, b := sortedLines(t, &seq), sortedLines(t, &par)
	if len(a) != len(b) {
		t.Fatalf("event counts differ: workers=1 got %d, workers=%d got %d",
			len(a), runtime.NumCPU(), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sorted event log differs at line %d:\nseq: %s\npar: %s", i, a[i], b[i])
		}
	}
}

func TestEventLogSchema(t *testing.T) {
	// Enough trials for two periodic checkpoints and a final one.
	var buf bytes.Buffer
	const trials = 2*observatory.CheckpointEvery + 3
	runObserved(t, trials, 2, &buf)

	starts, ends, findings, checkpoints := 0, 0, 0, 0
	var lastCheckpoint struct{ Completed, Total int }
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line is not valid JSON: %s: %v", line, err)
		}
		typ, _ := ev["type"].(string)
		for _, key := range []string{"type", "trial", "seq"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event lacks %q: %s", key, line)
			}
		}
		switch typ {
		case observatory.EventTrialStart:
			starts++
			if _, ok := ev["seed"]; !ok {
				t.Fatalf("trial_start lacks seed: %s", line)
			}
		case observatory.EventTrialEnd:
			ends++
			for _, key := range []string{"status", "vtimeNanos", "frames", "sendErrors", "findings"} {
				if _, ok := ev[key]; !ok {
					t.Fatalf("trial_end lacks %q: %s", key, line)
				}
			}
		case observatory.EventFinding:
			findings++
			for _, key := range []string{"vtimeNanos", "oracle", "detail", "triggerId"} {
				if _, ok := ev[key]; !ok {
					t.Fatalf("finding lacks %q: %s", key, line)
				}
			}
		case observatory.EventCorpusMerge:
			if _, ok := ev["frames"]; !ok {
				t.Fatalf("corpus_merge lacks frames: %s", line)
			}
		case observatory.EventCheckpoint:
			checkpoints++
			lastCheckpoint.Completed = int(ev["completed"].(float64))
			lastCheckpoint.Total = int(ev["total"].(float64))
			if ev["trial"].(float64) != -1 {
				t.Fatalf("checkpoint trial should be -1: %s", line)
			}
		default:
			t.Fatalf("unknown event type %q: %s", typ, line)
		}
	}
	if starts != trials || ends != trials {
		t.Errorf("got %d trial_start / %d trial_end events, want %d each", starts, ends, trials)
	}
	if findings == 0 {
		t.Error("targeted unlock fleet produced no finding events")
	}
	if want := trials/observatory.CheckpointEvery + 1; checkpoints != want {
		t.Errorf("got %d checkpoints with CheckpointEvery=%d over %d trials, want %d",
			checkpoints, observatory.CheckpointEvery, trials, want)
	}
	if lastCheckpoint.Completed != trials || lastCheckpoint.Total != trials {
		t.Errorf("final checkpoint %+v, want completed=total=%d", lastCheckpoint, trials)
	}
}

func TestProgressSnapshotAfterRun(t *testing.T) {
	var buf bytes.Buffer
	obs, rep := runObserved(t, 6, 2, &buf)
	ps := progressOf(t, obs)
	if !ps.Done {
		t.Error("progress not marked done after CampaignDone")
	}
	if ps.TrialsDone != 6 || ps.TrialsTotal != 6 {
		t.Errorf("trialsDone/trialsTotal = %d/%d, want 6/6", ps.TrialsDone, ps.TrialsTotal)
	}
	if ps.Findings != rep.FoundFindings {
		t.Errorf("progress findings %d != report %d", ps.Findings, rep.FoundFindings)
	}
	if ps.FramesSent != rep.FramesSent {
		t.Errorf("progress framesSent %d != report %d", ps.FramesSent, rep.FramesSent)
	}
	if ps.VirtualNanosTotal != int64(rep.VirtualTimeTotal) {
		t.Errorf("progress virtual total %d != report %d", ps.VirtualNanosTotal, rep.VirtualTimeTotal)
	}
	if rep.FoundFindings > 0 {
		if ps.TimeToFindingCount == 0 || len(ps.TimeToFindingHistogram) == 0 {
			t.Error("time-to-finding histogram empty despite findings")
		}
		var total uint64
		for _, b := range ps.TimeToFindingHistogram {
			total += b.Count
		}
		if total != ps.TimeToFindingCount {
			t.Errorf("histogram counts sum to %d, want %d", total, ps.TimeToFindingCount)
		}
	}
	if ps.BuildWallSeconds <= 0 || ps.RunWallSeconds <= 0 {
		t.Errorf("phase wall breakdown not populated: build=%v run=%v",
			ps.BuildWallSeconds, ps.RunWallSeconds)
	}
	if rep.BuildWall <= 0 || rep.RunWall <= 0 {
		t.Errorf("report phase walls not populated: build=%v run=%v", rep.BuildWall, rep.RunWall)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	tel := telemetry.New(0)
	intr := guided.NewIntrospection()
	sink := observatory.NewSink(nil)
	obs := observatory.New(observatory.Config{Sink: sink, Fuzz: intr, Telemetry: tel})
	rep, err := fleet.Run(fleet.Config{
		Trials: 4, Workers: 2, BaseSeed: 3,
		MaxPerTrial: 30 * time.Minute, Observer: obs,
	}, guidedFactory(intr))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(obs.Handler(observatory.HandlerConfig{}))
	defer srv.Close()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		if _, err := body.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp, body.Bytes()
	}

	resp, body := get("/campaign.json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/campaign.json: status %d", resp.StatusCode)
	}
	var ps fleet.ProgressSnapshot
	if err := json.Unmarshal(body, &ps); err != nil {
		t.Fatalf("/campaign.json is not a ProgressSnapshot: %v\n%s", err, body)
	}
	if ps.TrialsDone != 4 || !ps.Done {
		t.Errorf("/campaign.json trialsDone=%d done=%v, want 4/true", ps.TrialsDone, ps.Done)
	}

	resp, body = get("/fuzz.json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/fuzz.json: status %d", resp.StatusCode)
	}
	var fs guided.FuzzSnapshot
	if err := json.Unmarshal(body, &fs); err != nil {
		t.Fatalf("/fuzz.json is not a FuzzSnapshot: %v\n%s", err, body)
	}
	if fs.Engines != 4 {
		t.Errorf("/fuzz.json engines=%d, want 4 (one per trial)", fs.Engines)
	}
	if fs.Execs == 0 || fs.NoveltyBitsSet == 0 {
		t.Errorf("/fuzz.json shows no activity: %+v", fs)
	}
	if fs.CorpusSize == 0 {
		t.Errorf("/fuzz.json corpusSize=0 after guided unlock runs")
	}

	resp, body = get("/events?since=0")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/events: status %d", resp.StatusCode)
	}
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if uint64(len(lines)) != sink.Count() {
		t.Errorf("/events returned %d lines, sink holds %d", len(lines), sink.Count())
	}
	if next := resp.Header.Get("X-Events-Next"); next == "" || next == "0" {
		t.Errorf("X-Events-Next = %q, want the stream length", next)
	}

	// Tail from the end: no lines, cursor unchanged.
	resp, body = get("/events?since=" + resp.Header.Get("X-Events-Next"))
	if len(bytes.TrimSpace(body)) != 0 {
		t.Errorf("tailing past the end returned lines: %s", body)
	}

	resp, body = get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	for _, metric := range []string{"fleet_trials_total", "fleet_frames_sent_total", "fuzz_corpus_size"} {
		if !strings.Contains(string(body), metric) {
			t.Errorf("/metrics lacks %s", metric)
		}
	}

	if resp, _ = get("/debug/pprof/cmdline"); resp.StatusCode == http.StatusOK {
		t.Error("pprof served without HandlerConfig.Pprof")
	}
	_ = rep
}

// TestLiveFleetSeriesMatchReport pins the fleet series' one writer: the
// observatory's metrics plane, fed live by Progress, ends a campaign
// carrying what the report's telemetry section carries. At one worker the
// documents are byte-equal. With more workers (and with fail-fast skips,
// counted at CampaignDone) every counter, bucket count and the clock still
// agree; only the histogram sum, a float added in completion order, may
// differ in its last bits. The fleets run blind, so no fuzz_* gauge joins
// the exposition, and no trial stalls, so the lazily registered
// fleet_trials_total{status="stalled"} must stay absent.
func TestLiveFleetSeriesMatchReport(t *testing.T) {
	run := func(t *testing.T, cfg fleet.Config) (string, *fleet.Report) {
		t.Helper()
		tel := telemetry.New(0)
		obs := observatory.New(observatory.Config{Telemetry: tel})
		cfg.BaseSeed, cfg.MaxPerTrial, cfg.Observer = 13, 30*time.Minute, obs
		rep, err := fleet.Run(cfg, unlockFactory)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		obs.Handler(observatory.HandlerConfig{}).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics.json", nil))
		live := rec.Body.String()
		if strings.Contains(live, `"stalled"`) {
			t.Errorf("stalled series registered without a stalled trial:\n%s", live)
		}
		return live, rep
	}
	withoutSums := func(t *testing.T, doc string) string {
		t.Helper()
		var v struct {
			VirtualTimeMicros int64            `json:"virtualTimeMicros"`
			Metrics           []map[string]any `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(doc), &v); err != nil {
			t.Fatalf("%v\n%s", err, doc)
		}
		for _, m := range v.Metrics {
			if hv, ok := m["value"].(map[string]any); ok {
				delete(hv, "sum")
			}
		}
		out, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}

	live, rep := run(t, fleet.Config{Trials: 6, Workers: 1})
	if want := string(rep.Telemetry) + "\n"; live != want {
		t.Errorf("workers=1: /metrics.json differs from the report's telemetry:\n%s\nwant:\n%s", live, want)
	}
	for _, cfg := range []fleet.Config{{Trials: 6, Workers: 3}, {Trials: 12, Workers: 3, FailFast: true}} {
		live, rep := run(t, cfg)
		if cfg.FailFast && rep.Skipped == 0 {
			t.Fatal("fail-fast fleet skipped no trial")
		}
		if got, want := withoutSums(t, live), withoutSums(t, string(rep.Telemetry)); got != want {
			t.Errorf("%+v: live fleet series differ from the report's:\n%s\nwant:\n%s", cfg, got, want)
		}
	}
}

// TestProgressRegistersStalledOnFirstStall checks the other half of the
// lazy registration: the first stalled trial adds the series, live.
func TestProgressRegistersStalledOnFirstStall(t *testing.T) {
	tel := telemetry.New(0)
	obs := observatory.New(observatory.Config{Telemetry: tel})
	obs.CampaignStarted(fleet.Config{Trials: 2}, 1)
	obs.TrialFinished(fleet.TrialResult{Trial: 0, Status: fleet.StatusTimeout})
	var prom strings.Builder
	if err := tel.Registry.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(prom.String(), `status="stalled"`) {
		t.Fatalf("stalled series registered before any trial stalled:\n%s", prom.String())
	}
	obs.TrialFinished(fleet.TrialResult{Trial: 1, Status: fleet.StatusStalled})
	prom.Reset()
	if err := tel.Registry.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), `fleet_trials_total{status="stalled"} 1`) {
		t.Fatalf("stalled trial not counted:\n%s", prom.String())
	}
	if ps := progressOf(t, obs); ps.Stalled != 1 || ps.TrialsDone != 2 {
		t.Errorf("snapshot stalled/trialsDone = %d/%d, want 1/2", ps.Stalled, ps.TrialsDone)
	}
}

// TestFleetProgressLogging checks the progress lines the observatory logs
// for a fleet: one per tenth of the trials (here every trial) and the
// last, each with the totals and the throughput.
func TestFleetProgressLogging(t *testing.T) {
	var buf bytes.Buffer
	obs := observatory.New(observatory.Config{Logger: slog.New(slog.NewTextHandler(&buf, nil))})
	if _, err := fleet.Run(fleet.Config{
		Trials: 4, BaseSeed: 2, Workers: 2,
		MaxPerTrial: 30 * time.Minute, Observer: obs,
	}, unlockFactory); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if n := strings.Count(out, "fleet progress"); n != 4 || !strings.Contains(out, "total=4") {
		t.Fatalf("want 4 progress lines with total=4, got %d: %q", n, out)
	}
	if !strings.Contains(out, "done=4") || !strings.Contains(out, "trials_per_sec") {
		t.Fatalf("progress log lacks the last completion or the throughput: %q", out)
	}
}

func TestHTTPPprofEnabled(t *testing.T) {
	obs := observatory.New(observatory.Config{})
	srv := httptest.NewServer(obs.Handler(observatory.HandlerConfig{Pprof: true}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline with Pprof on: status %d", resp.StatusCode)
	}
}

func TestEventsLongPoll(t *testing.T) {
	sink := observatory.NewSink(nil)
	obs := observatory.New(observatory.Config{Sink: sink})
	srv := httptest.NewServer(obs.Handler(observatory.HandlerConfig{}))
	defer srv.Close()

	done := make(chan string, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/events?since=0&waitMs=5000")
		if err != nil {
			done <- "error: " + err.Error()
			return
		}
		var body bytes.Buffer
		_, _ = body.ReadFrom(resp.Body)
		resp.Body.Close()
		done <- body.String()
	}()

	// Give the poller a moment to register its waiter, then emit.
	time.Sleep(50 * time.Millisecond)
	sink.Emit(observatory.Event{Type: observatory.EventCheckpoint, Trial: -1, Seq: 1, Completed: 1, Total: 2})

	select {
	case body := <-done:
		if !strings.Contains(body, `"type":"checkpoint"`) {
			t.Errorf("long-poll body = %q, want the checkpoint event", body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long-poll never returned after an emit")
	}
}

func TestSinkRingAndCursors(t *testing.T) {
	var nilSink *observatory.Sink
	nilSink.Emit(observatory.Event{Type: observatory.EventCheckpoint})
	if nilSink.Count() != 0 || nilSink.Err() != nil {
		t.Error("nil sink is not a silent no-op")
	}
	lines, next, from := nilSink.Since(0, 10)
	if lines != nil || next != 0 || from != 0 {
		t.Error("nil sink Since not empty")
	}

	sink := observatory.NewSink(nil)
	for i := 0; i < 10; i++ {
		sink.Emit(observatory.Event{Type: observatory.EventCheckpoint, Trial: -1, Seq: i, Completed: i, Total: 10})
	}
	lines, next, from = sink.Since(4, 3)
	if len(lines) != 3 || from != 4 || next != 7 {
		t.Errorf("Since(4,3) = %d lines, from %d, next %d; want 3, 4, 7", len(lines), from, next)
	}
	if !strings.Contains(string(lines[0]), `"completed":4`) {
		t.Errorf("Since(4,3) first line = %s, want completed 4", lines[0])
	}
	// A cursor past the end clamps.
	lines, next, _ = sink.Since(99, 10)
	if len(lines) != 0 || next != 10 {
		t.Errorf("Since past end = %d lines, next %d; want 0, 10", len(lines), next)
	}
	// Changed is pre-closed when the cursor is already behind.
	select {
	case <-sink.Changed(0):
	default:
		t.Error("Changed(0) not ready with 10 lines emitted")
	}
}

// countingWriter records every Write it is handed.
type countingWriter struct {
	writes int
	bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestSinkEmitBatch checks a batch reaches the writer in one Write with
// the bytes of one Emit per event, enters the tail ring as one line per
// event, and wakes a waiter.
func TestSinkEmitBatch(t *testing.T) {
	evs := []observatory.Event{
		{Type: observatory.EventFinding, Trial: 3, Seq: 1, VirtualNanos: 7, Oracle: "unlock", Detail: "a\"b", TriggerID: "215"},
		{Type: observatory.EventTrialEnd, Trial: 3, Seq: 2, Status: "finding", Frames: 9, Findings: 1},
		{Type: observatory.EventTrialResult, Trial: 3, Seq: 3, Raw: []byte(`{"trial":3}`)},
		{Type: observatory.EventCheckpoint, Trial: -1, Seq: 10, Completed: 10, Total: 23},
	}
	var one countingWriter
	single := observatory.NewSink(&one)
	for _, e := range evs {
		single.Emit(e)
	}
	var batched countingWriter
	sink := observatory.NewSink(&batched)
	sink.Emit(observatory.TrialStart(3, 42))
	ch := sink.Changed(1)
	sink.EmitBatch(evs)
	sink.EmitBatch(nil)
	if batched.writes != 2 {
		t.Fatalf("batch took %d writes with the lone Emit, want 2", batched.writes)
	}
	if got, want := batched.String(), observatory.TrialStart(3, 42).MarshalJSONL(nil); !strings.HasPrefix(got, string(want)+"\n") ||
		got[len(want)+1:] != one.String() {
		t.Fatalf("batched bytes differ from one Emit per event:\n%s\nwant\n%s", got[len(want)+1:], one.String())
	}
	select {
	case <-ch:
	default:
		t.Fatal("EmitBatch did not wake the waiter")
	}
	lines, next, _ := sink.Since(1, 0)
	if sink.Count() != 5 || next != 5 || len(lines) != len(evs) {
		t.Fatalf("count %d, Since(1) = %d lines up to %d; want 5, 4, 5", sink.Count(), len(lines), next)
	}
	for i, e := range evs {
		if want := e.MarshalJSONL(nil); !bytes.Equal(lines[i], want) {
			t.Fatalf("ring line %d = %s, want %s", i, lines[i], want)
		}
	}
	var nilSink *observatory.Sink
	nilSink.EmitBatch(evs)
}

func TestSinkClose(t *testing.T) {
	sink := observatory.NewSink(nil)

	// A waiter registered before Close is woken by it.
	ch := sink.Changed(0)
	select {
	case <-ch:
		t.Fatal("Changed(0) ready on an empty stream")
	default:
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("Close on a healthy sink: %v", err)
	}
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not wake the registered waiter")
	}

	// After Close every Changed comes back pre-closed, at any cursor.
	select {
	case <-sink.Changed(99):
	default:
		t.Error("Changed after Close should be pre-closed")
	}

	// Emit after Close still records the line: late results are data.
	sink.Emit(observatory.Event{Type: observatory.EventCheckpoint, Trial: -1, Seq: 1, Completed: 1, Total: 1})
	if sink.Count() != 1 {
		t.Errorf("post-Close emit not recorded: count = %d", sink.Count())
	}

	// Close surfaces the sticky write error; idempotent.
	bad := observatory.NewSink(failWriter{})
	bad.Emit(observatory.Event{Type: observatory.EventCheckpoint, Trial: -1})
	if err := bad.Close(); err == nil {
		t.Error("Close swallowed the sticky write error")
	}
	if err := bad.Close(); err == nil {
		t.Error("second Close swallowed the sticky write error")
	}

	var nilSink *observatory.Sink
	if err := nilSink.Close(); err != nil {
		t.Errorf("nil sink Close: %v", err)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errWriteFailed }

var errWriteFailed = errors.New("disk full")

func TestEventParseLineRoundTrip(t *testing.T) {
	events := []observatory.Event{
		{Type: observatory.EventTrialStart, Trial: 3, Seq: 0, Seed: -42},
		{Type: observatory.EventFinding, Trial: 3, Seq: 1, VirtualNanos: 1234,
			Oracle: "unlock-ack", Detail: `a "quoted" detail`, TriggerID: "215"},
		{Type: observatory.EventTrialEnd, Trial: 3, Seq: 2, Status: "finding",
			VirtualNanos: 5678, Frames: 99, SendErrors: 2, Findings: 1},
		{Type: observatory.EventCorpusMerge, Trial: 3, Seq: 3, Frames: 7},
		{Type: observatory.EventCheckpoint, Trial: -1, Seq: 4, Completed: 4, Total: 8},
		{Type: observatory.EventCampaignStart, Trial: -1, Seq: 0, Raw: []byte(`{"trials":8,"baseSeed":5}`)},
		{Type: observatory.EventTrialResult, Trial: 3, Seq: 5, Raw: []byte(`{"trial":3,"status":"finding"}`)},
	}
	for _, want := range events {
		line := want.MarshalJSONL(nil)
		got, err := observatory.ParseLine(line)
		if err != nil {
			t.Fatalf("ParseLine(%s): %v", line, err)
		}
		// Marshalling the parsed event must reproduce the original bytes:
		// that is the property the resume journal depends on.
		if back := got.MarshalJSONL(nil); !bytes.Equal(back, line) {
			t.Errorf("round trip diverged:\n in: %s\nout: %s", line, back)
		}
	}

	if _, err := observatory.ParseLine([]byte(`not json`)); err == nil {
		t.Error("ParseLine accepted garbage")
	}
	if _, err := observatory.ParseLine([]byte(`{"trial":1}`)); err == nil {
		t.Error("ParseLine accepted a line without a type")
	}
}

func TestEventsLongPollUnblocksOnShutdown(t *testing.T) {
	// Satellite of the distributed-campaign work: a graceful server
	// shutdown must not wait out every /events long-poller's waitMs. The
	// sink's Close is registered as an http.Server shutdown hook, so
	// telemetry.Shutdown wakes the pollers and the drain completes
	// promptly, leaving no poller goroutines behind.
	sink := observatory.NewSink(nil)
	obs := observatory.New(observatory.Config{Sink: sink})
	srv, addr, err := telemetry.ServeHandler("127.0.0.1:0", obs.Handler(observatory.HandlerConfig{}), func() { _ = sink.Close() })
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	const pollers = 4
	done := make(chan error, pollers)
	for i := 0; i < pollers; i++ {
		go func() {
			resp, err := http.Get("http://" + addr + "/events?since=0&waitMs=25000")
			if err == nil {
				resp.Body.Close()
			}
			done <- err
		}()
	}
	// Wait until every poller has parked in the sink's waiter list; only
	// then is shutdown actually racing against blocked long-polls.
	deadline := time.Now().Add(10 * time.Second)
	for sink.Waiting() < pollers && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := sink.Waiting(); n < pollers {
		t.Fatalf("only %d of %d pollers registered", n, pollers)
	}

	start := time.Now()
	telemetry.Shutdown(srv, 5*time.Second)
	for i := 0; i < pollers; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("poller failed: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("long-poller still blocked after Shutdown")
		}
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("shutdown took %v, pollers were not woken", took)
	}

	// The poller goroutines (and the server's) must be gone; allow the
	// runtime a moment to reap them.
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked across shutdown: before=%d after=%d", before, after)
	}
}

func TestObservatoryNilSinkFleet(t *testing.T) {
	// An observatory with no sink is still a valid observer (progress
	// only) — the -metrics-without--events path.
	obs := observatory.New(observatory.Config{})
	if _, err := fleet.Run(fleet.Config{
		Trials: 2, Workers: 2, BaseSeed: 5,
		MaxPerTrial: 30 * time.Minute, Observer: obs,
	}, unlockFactory); err != nil {
		t.Fatal(err)
	}
	if got := progressOf(t, obs).TrialsDone; got != 2 {
		t.Errorf("trialsDone = %d, want 2", got)
	}
	rec := httptest.NewRecorder()
	obs.Handler(observatory.HandlerConfig{}).ServeHTTP(rec, httptest.NewRequest("GET", "/events", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("/events without a sink: status %d, want 404", rec.Code)
	}
}

// progressOf reads the progress snapshot obs serves at /campaign.json.
func progressOf(t *testing.T, obs *observatory.Observatory) fleet.ProgressSnapshot {
	t.Helper()
	rec := httptest.NewRecorder()
	obs.Handler(observatory.HandlerConfig{}).ServeHTTP(rec, httptest.NewRequest("GET", "/campaign.json", nil))
	var ps fleet.ProgressSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &ps); err != nil {
		t.Fatalf("/campaign.json is not a ProgressSnapshot: %v\n%s", err, rec.Body)
	}
	return ps
}
