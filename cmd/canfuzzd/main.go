// Command canfuzzd is the long-lived campaign service: a single daemon
// that owns a directory of fuzzing campaigns and schedules a shared,
// campaign-agnostic worker fleet across all of them with weighted
// fair-share round-robin.
//
// Clients submit work with `canfuzz -submit http://daemon:9090` (one
// campaign per invocation, same flags as a local run), watch it with
// `canfuzz -status URL`, and read final reports from
// /campaigns/{id}/report.json — byte-identical to what an in-process
// `fleet.Run` of the same spec would print. Workers attach with
// `canfuzz -worker http://daemon:9090` and survive any number of
// campaigns. Kill the daemon at any point and `canfuzzd -resume -data D`
// continues every campaign from its journal.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/campsrv"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "canfuzzd:", err)
		os.Exit(1)
	}
}

func run(argv []string) error {
	fs := flag.NewFlagSet("canfuzzd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9090", "listen address for the campaign API")
	dataDir := fs.String("data", "", "durable data directory: index.json plus one journal directory per campaign (required)")
	resume := fs.Bool("resume", false, "reload an existing -data directory and continue its campaigns")
	authToken := fs.String("auth-token", "", "shared secret; when set every request (except /healthz) must send 'Authorization: Bearer <token>'")
	leaseTTL := fs.Duration("lease-ttl", 0, "worker lease deadline for every campaign (0 = 10s)")
	maxActive := fs.Int("max-active", 0, "cap on concurrently running campaigns; excess submissions queue (0 = unlimited)")
	grace := fs.Duration("grace", 5*time.Second, "shutdown grace: how long to keep answering workers after SIGINT/SIGTERM")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	findingsDB := fs.String("findings-db", "", "findings database directory; every completed campaign's findings are merged into it (replay with canregress)")
	logFlags := telemetry.RegisterLogFlags(fs)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *dataDir == "" {
		return fmt.Errorf("-data is required")
	}
	logger, err := logFlags.Logger(os.Stderr, "canfuzzd")
	if err != nil {
		return err
	}

	tel := telemetry.New(0)
	srv, err := campsrv.New(campsrv.Config{
		DataDir:    *dataDir,
		Resume:     *resume,
		LeaseTTL:   *leaseTTL,
		MaxActive:  *maxActive,
		Telemetry:  tel,
		Logger:     logger,
		FindingsDB: *findingsDB,
	})
	if err != nil {
		return err
	}

	handler := srv.Handler(campsrv.HandlerConfig{AuthToken: *authToken, Pprof: *pprofOn})
	httpSrv, bound, err := telemetry.ServeHandler(*addr, handler)
	if err != nil {
		return fmt.Errorf("campaign API endpoint: %w", err)
	}
	logger.Info("campaign service up", "addr", bound, "data", *dataDir,
		"resume", *resume, "auth", *authToken != "", "max_active", *maxActive,
		"routes", "/campaigns /campaigns/{id}{,/report.json,/events,/cancel} /fleet.json /campaignd/{spec,lease,heartbeat,result} /metrics")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()

	// Orderly shutdown: tell lease polls "done" so workers exit, keep the
	// API answering for the grace window, then persist and finalise. The
	// journals make this safe at any point — even SIGKILL skips straight to
	// the -resume path with nothing lost beyond a torn tail line.
	logger.Info("signal received; draining workers", "grace", *grace)
	srv.BeginShutdown()
	drainCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	<-drainCtx.Done()
	telemetry.Shutdown(httpSrv, time.Second)
	if err := srv.Close(); err != nil {
		return err
	}
	logger.Info("campaign service stopped")
	return nil
}
