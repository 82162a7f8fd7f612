package telemetry

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler returns the live introspection endpoint:
//
//	/metrics       Prometheus text exposition
//	/metrics.json  JSON metrics snapshot
//	/trace.json    Chrome trace_event document (load in Perfetto)
//	/healthz       liveness + virtual-time progress
//
// All routes read published state, so scraping while the simulation loop
// runs is race-free. A scrape observes the counters as of the last
// completed event; /trace.json and the /healthz event count are as of the
// tracer's last publication — at most 256 events behind during a campaign
// run, exact after the campaign stops.
func Handler(t *Telemetry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = t.Reg().WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = t.Reg().WriteJSON(w)
	})
	mux.HandleFunc("/trace.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = t.Trc().WriteChromeTrace(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"status\":\"ok\",\"virtualTimeMicros\":%d,\"traceEvents\":%d}\n",
			int64(t.Reg().Now()/time.Microsecond), t.Trc().Len())
	})
	return mux
}

// MountPprof registers the net/http/pprof routes under /debug/pprof/ on
// mux, for the servers that offer live CPU and heap profiles.
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Serve starts the introspection endpoint on addr (e.g. "localhost:9900";
// a ":0" port picks a free one). It returns the server and its bound
// address; the caller shuts it down with Shutdown (graceful) or
// server.Close (abrupt).
func Serve(addr string, t *Telemetry) (*http.Server, string, error) {
	return ServeHandler(addr, Handler(t))
}

// ServeHandler is Serve for an arbitrary handler — the observatory mounts
// its extended mux through it. Each onShutdown hook is registered via
// http.Server.RegisterOnShutdown, so a graceful Shutdown runs it before
// waiting for in-flight requests: the hook's job is to *unblock* them.
// The observatory passes its event sink's Close here, which wakes /events
// long-pollers that would otherwise hold the drain until their client
// timeout.
//
// The server drops a client that has not sent its request headers within
// readHeaderTimeout, and a keep-alive connection idle for idleTimeout, so
// stalled or abandoned clients cannot pin connections. There is no
// overall read or write timeout: /events long-polls and large
// /trace.json documents may legitimately take long.
func ServeHandler(addr string, h http.Handler, onShutdown ...func()) (*http.Server, string, error) {
	return serveWithTimeouts(addr, h, readHeaderTimeout, idleTimeout, onShutdown...)
}

// Connection timeouts of every server ServeHandler starts.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// serveWithTimeouts is ServeHandler with explicit connection timeouts.
func serveWithTimeouts(addr string, h http.Handler, readHeader, idle time.Duration, onShutdown ...func()) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: readHeader, IdleTimeout: idle}
	for _, fn := range onShutdown {
		srv.RegisterOnShutdown(fn)
	}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}

// Shutdown drains the server gracefully: in-flight scrapes get up to grace
// to finish, then the server is closed hard. Safe on a nil server.
func Shutdown(srv *http.Server, grace time.Duration) {
	if srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		_ = srv.Close()
	}
}

// Hold blocks for d or until ctx is cancelled — the -metrics-hold wait,
// interruptible by SIGINT when the caller wires signal.NotifyContext.
// d <= 0 returns immediately.
func Hold(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
