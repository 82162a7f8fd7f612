package telemetry

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"
)

func get(t *testing.T, h http.Handler, path string) (*http.Response, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	res := rec.Result()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res, string(body)
}

func TestHandlerRoutes(t *testing.T) {
	tel := New(8)
	tel.Reg().Counter("frames_total", "frames").Add(12)
	tel.Advance(3 * time.Second)
	tel.Emit(Event{At: time.Second, Kind: EvOracle, Actor: "campaign", Name: "finding"})
	h := Handler(tel)

	res, body := get(t, h, "/metrics")
	if ct := res.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(body, "frames_total 12\n") {
		t.Fatalf("/metrics body:\n%s", body)
	}

	_, body = get(t, h, "/metrics.json")
	if !strings.Contains(body, `"virtualTimeMicros": 3000000`) {
		t.Fatalf("/metrics.json body:\n%s", body)
	}

	_, body = get(t, h, "/trace.json")
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/trace.json not JSON: %v", err)
	}

	_, body = get(t, h, "/healthz")
	if body != "{\"status\":\"ok\",\"virtualTimeMicros\":3000000,\"traceEvents\":1}\n" {
		t.Fatalf("/healthz body: %q", body)
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	tel := New(0)
	srv, addr, err := Serve("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
}

// TestServerDropsStalledHeaders opens a connection, sends half a request
// head and never finishes it: the server must close the connection once
// the header timeout passes instead of holding it open.
func TestServerDropsStalledHeaders(t *testing.T) {
	srv, addr, err := serveWithTimeouts("127.0.0.1:0", Handler(New(0)), 100*time.Millisecond, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	// Generous client-side deadline: only a hung server reaches it.
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("server kept the stalled connection open for %v", time.Since(start))
	}
	if err != nil && !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("read from stalled connection: %v", err)
	}
}
