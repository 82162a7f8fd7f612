package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"testing"

	"repro/internal/campsrv"
)

func TestRunServiceClientModes(t *testing.T) {
	// CLI-level smoke of the campaign-service path: an in-process campsrv
	// server stands in for canfuzzd; `-worker` serves it, `-submit -watch`
	// rides one campaign to completion, `-status` renders the fleet table.
	s, err := campsrv.New(campsrv.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hs := httptest.NewServer(s.Handler(campsrv.HandlerConfig{AuthToken: "hunter2"}))
	defer hs.Close()

	workerDone := make(chan error, 1)
	go func() {
		workerDone <- run([]string{"-worker", hs.URL, "-worker-name", "w1", "-token", "hunter2"})
	}()

	err = run([]string{"-target", "bench", "-ids", "215", "-trials", "3",
		"-dur", "30m", "-seed", "9", "-submit", hs.URL, "-watch", "-json",
		"-priority", "2", "-token", "hunter2"})
	if err != nil {
		t.Fatalf("submit -watch: %v", err)
	}

	// A guided campaign's merged corpus comes back with the report: the
	// -corpus-out file must match the in-process fleet's byte for byte.
	dir := t.TempDir()
	guided := []string{"-target", "bench", "-mode", "guided", "-trials", "2",
		"-dur", "30m", "-seed", "3"}
	local, remote := dir+"/local.corpus", dir+"/remote.corpus"
	if err := run(append(guided, "-workers", "1", "-corpus-out", local)); err != nil {
		t.Fatalf("in-process guided fleet: %v", err)
	}
	if err := run(append(guided, "-submit", hs.URL, "-watch", "-token", "hunter2",
		"-corpus-out", remote)); err != nil {
		t.Fatalf("guided submit -watch: %v", err)
	}
	want, err := os.ReadFile(local)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(remote)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("service merged corpus (%d bytes) differs from in-process (%d bytes)", len(got), len(want))
	}

	if err := run([]string{"-status", hs.URL, "-token", "hunter2"}); err != nil {
		t.Fatalf("status: %v", err)
	}
	// Wrong token must be a hard client error, not a silent retry loop.
	if err := run([]string{"-status", hs.URL, "-token", "wrong"}); err == nil {
		t.Fatal("status with a bad token succeeded, want error")
	}

	s.BeginShutdown()
	if err := <-workerDone; err != nil {
		t.Fatalf("worker: %v", err)
	}
}
