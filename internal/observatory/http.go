package observatory

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"repro/internal/telemetry"
)

// maxEventBatch bounds one /events response so a tail client cannot ask
// the server to buffer the whole log in one reply.
const maxEventBatch = 4096

// defaultLongPoll is the /events wait used when the client asks to block
// (waitMs > 0) without giving a bound we accept; it also caps client
// requests so handlers always return.
const defaultLongPoll = 30 * time.Second

// HandlerConfig tunes Handler.
type HandlerConfig struct {
	// Pprof mounts net/http/pprof under /debug/pprof/ — CPU and heap
	// profiles of a live campaign (the -pprof flag).
	Pprof bool
}

// Handler returns the campaign introspection endpoint:
//
//	/campaign.json  live fleet progress: trials done/total, per-outcome
//	                counters, exec/s, ETA, phase wall breakdown, the
//	                time-to-finding histogram so far
//	/events         JSONL tail of the campaign event log; ?since=N resumes
//	                at stream index N, ?waitMs=T long-polls for new lines
//	/fuzz.json      guided-engine internals: novelty saturation, corpus
//	                energy quantiles, mutate-vs-explore ratio, staleness
//	/debug/pprof/*  (with cfg.Pprof) live CPU/heap/goroutine profiles
//
// plus, when the observatory carries a telemetry plane, all telemetry
// routes (/metrics, /metrics.json, /trace.json, /healthz); in fleet mode
// these carry, live, the fleet series the report's telemetry section ends
// with. Every route reads atomically published state; scraping never
// stalls fleet workers.
func (o *Observatory) Handler(cfg HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/campaign.json", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, o.progress.Snapshot())
	})
	mux.HandleFunc("/fuzz.json", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, o.fuzz.Snapshot())
	})
	mux.HandleFunc("/events", o.serveEvents)
	if cfg.Pprof {
		telemetry.MountPprof(mux)
	}
	if o.tel != nil {
		mux.Handle("/", telemetry.Handler(o.tel))
	}
	return mux
}

// serveEvents streams the event-log tail as JSONL. Without parameters it
// returns the newest lines the ring still holds; with ?since=N it resumes
// at stream index N; with ?waitMs=T it long-polls up to T ms for lines
// past the cursor before answering (possibly empty on timeout). The
// response carries:
//
//	X-Events-Next:  the cursor to pass as ?since= next time
//	X-Events-From:  the index the batch actually starts at (> since when
//	                the ring dropped older lines; the full log is in the
//	                -events file)
//	X-Events-Total: lines emitted so far
func (o *Observatory) serveEvents(w http.ResponseWriter, r *http.Request) {
	ServeEventsTail(w, r, o.sink)
}

// ServeEventsTail implements the /events protocol above against any sink —
// exported so the multi-campaign service can mount one event tail per
// campaign journal without owning a full Observatory. A nil sink answers
// 404: there is no event log to tail.
func ServeEventsTail(w http.ResponseWriter, r *http.Request, sink *Sink) {
	if sink == nil {
		http.Error(w, "no event log attached (run with -events)", http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	since, _ := strconv.ParseUint(q.Get("since"), 10, 64)
	maxLines, _ := strconv.Atoi(q.Get("max"))
	if maxLines <= 0 || maxLines > maxEventBatch {
		maxLines = maxEventBatch
	}
	if waitMs, _ := strconv.Atoi(q.Get("waitMs")); waitMs > 0 {
		wait := time.Duration(waitMs) * time.Millisecond
		if wait > defaultLongPoll {
			wait = defaultLongPoll
		}
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-sink.Changed(since):
		case <-timer.C:
		case <-r.Context().Done():
			return
		}
	}
	lines, next, from := sink.Since(since, maxLines)
	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	w.Header().Set("X-Events-Next", strconv.FormatUint(next, 10))
	w.Header().Set("X-Events-From", strconv.FormatUint(from, 10))
	w.Header().Set("X-Events-Total", strconv.FormatUint(sink.Count(), 10))
	for _, line := range lines {
		_, _ = w.Write(line)
		_, _ = w.Write([]byte{'\n'})
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
