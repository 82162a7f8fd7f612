package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/campaignd"
	"repro/internal/campsrv"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/target"
	"repro/internal/telemetry"
)

// serviceLoad is the in-process canfuzzd workload: each campaign is
// submitted over HTTP to a campsrv server started for it on a fresh data
// directory and a loopback listener, and one campaignd.Worker drains it in
// a closed loop. A fresh server per campaign keeps the heap the size of
// one campaign: a server that kept every campaign of a run grew past
// 200 MB, and marking that heap made the run's speed follow the host's
// memory traffic.
type serviceLoad struct {
	template campaignd.CampaignSpec // everything but BaseSeed and Trials
}

func (l *serviceLoad) spec(baseSeed int64, trials int) campaignd.CampaignSpec {
	s := l.template
	s.BaseSeed, s.Trials = baseSeed, trials
	// The template's config is a zero core.Config, which always converts.
	cfg, _ := s.Config.ToConfig()
	cfg.Seed = baseSeed
	s.Config = cfg.ToJSON()
	return s
}

// serviceRig is the client side that drives the servers.
type serviceRig struct {
	load      *serviceLoad
	tmpRoot   string
	tr        *tracer
	transport *http.Transport
	rt        *svcTransport
	worker    *http.Client // the worker's client, through rt
	ctl       *http.Client // submissions and report fetches
	base      string       // URL of the server running the current campaign

	flush func(*tracer) // adapter of the world the current trial built
}

// server is one campsrv instance on its own data directory.
type server struct {
	dir  string
	srv  *campsrv.Server
	http *http.Server
}

// svcTransport is the worker's http.RoundTripper. On every run it stamps
// each trial's wall time (lease request to submit ack) and ends the batch
// at the expected number of accepted results; on traced runs it also
// records the round trips as child spans of the trial.
type svcTransport struct {
	base http.RoundTripper
	rig  *serviceRig

	mu       sync.Mutex
	open     bool
	trialT0  time.Time
	lastRTT  time.Time
	want     int
	results  int
	leases   int
	first    time.Time
	last     time.Time
	walls    []float64
	httpErrs int
	firstErr string
	cancel   context.CancelFunc
	runMs    []float64
}

func (t *svcTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	start := time.Now()
	t.mu.Lock()
	switch path {
	case "/campaignd/lease":
		t.leases++
		if !t.open {
			t.open, t.trialT0 = true, start
			if t.first.IsZero() {
				t.first = start
			}
			if tr := t.rig.tr; tr != nil {
				tr.beginTrial(int64(start.Sub(tr.epoch)))
			}
		}
	case "/campaignd/result":
		if !t.lastRTT.IsZero() {
			t.runMs = append(t.runMs, ms(start.Sub(t.lastRTT)))
		}
	}
	t.mu.Unlock()

	resp, err := t.base.RoundTrip(req)
	end := time.Now()

	t.mu.Lock()
	defer t.mu.Unlock()
	t.lastRTT = end
	ok := err == nil && resp.StatusCode < 300
	if !ok {
		t.httpErrs++
		if t.firstErr == "" {
			if err != nil {
				t.firstErr = fmt.Sprintf("%s: %v", path, err)
			} else {
				t.firstErr = fmt.Sprintf("%s: %s", path, resp.Status)
			}
		}
	}
	tr := t.rig.tr
	if tr != nil {
		s, e := int64(start.Sub(tr.epoch)), int64(end.Sub(tr.epoch))
		switch path {
		case "/campaignd/lease":
			tr.span("campaignd.lease_rtt", s, e, true)
		case "/campaignd/result":
			tr.span("campaignd.submit_rtt", s, e, true)
		case "/campaignd/spec":
			tr.span("campaignd.spec_rtt", s, e, false)
		default: // heartbeats run beside the trial, not inside its critical path
			tr.record("campaignd.other_rtt", e-s, false)
		}
	}
	if path == "/campaignd/result" && ok && resp.StatusCode == http.StatusOK {
		t.open = false
		t.walls = append(t.walls, ms(end.Sub(t.trialT0)))
		if tr != nil {
			if t.rig.flush != nil {
				t.rig.flush(tr)
			}
			tr.endTrial(int64(end.Sub(tr.epoch)))
		}
		t.results++
		if t.results == t.want {
			t.last = end
			t.cancel()
		}
	}
	return resp, err
}

// arm prepares the transport for a batch of want trials.
func (t *svcTransport) arm(want int, cancel context.CancelFunc) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.want, t.results, t.cancel = want, 0, cancel
	t.first, t.last, t.lastRTT, t.open = time.Time{}, time.Time{}, time.Time{}, false
}

func (l *serviceLoad) newRig(tmpRoot string, tr *tracer) *serviceRig {
	r := &serviceRig{load: l, tmpRoot: tmpRoot, tr: tr}
	r.transport = http.DefaultTransport.(*http.Transport).Clone()
	r.rt = &svcTransport{base: r.transport, rig: r}
	r.worker = &http.Client{Transport: r.rt}
	r.ctl = &http.Client{Transport: r.transport}
	return r
}

// startServer starts a campaign server, as canfuzzd does, on a fresh data
// directory and a loopback listener, and points the clients at it.
func (r *serviceRig) startServer() (*server, error) {
	dir, err := os.MkdirTemp(r.tmpRoot, "canfuzzd-")
	if err != nil {
		return nil, err
	}
	srv, err := campsrv.New(campsrv.Config{DataDir: dir, Telemetry: telemetry.New(0)})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	h := srv.Handler(campsrv.HandlerConfig{})
	if r.tr != nil {
		h = r.timeHandlers(h)
	}
	httpSrv, addr, err := telemetry.ServeHandler("127.0.0.1:0", h)
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	r.base = "http://" + addr
	return &server{dir: dir, srv: srv, http: httpSrv}, nil
}

// stop shuts the server down and removes its data directory.
func (s *server) stop() error {
	telemetry.Shutdown(s.http, time.Second)
	err := s.srv.Close()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

func (r *serviceRig) takeWalls() []float64 {
	r.rt.mu.Lock()
	defer r.rt.mu.Unlock()
	w := r.rt.walls
	r.rt.walls = nil
	return w
}

func (r *serviceRig) clearStats() {
	r.rt.mu.Lock()
	r.rt.walls, r.rt.runMs, r.rt.leases, r.rt.httpErrs, r.rt.firstErr = nil, nil, 0, 0, ""
	r.rt.mu.Unlock()
	if r.tr != nil {
		r.tr.reset()
	}
}

// timeHandlers is the traced run's middleware around campsrv's handler.
func (r *serviceRig) timeHandlers(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		t0 := time.Now()
		next.ServeHTTP(w, req)
		d := int64(time.Since(t0))
		switch req.URL.Path {
		case "/campaignd/lease":
			r.tr.record("campsrv.lease_handler", d, false)
		case "/campaignd/result":
			r.tr.record("campsrv.result_handler", d, false)
		}
	})
}

// close drops the clients' idle connections.
func (r *serviceRig) close() error {
	r.transport.CloseIdleConnections()
	return nil
}

// buildRuntime is the worker's RuntimeBuilder: the same mapping canfuzz
// -worker uses (target.FromCampaignSpec, then target.Build per trial),
// plus the build span and frame-source adapter on traced runs.
func (r *serviceRig) buildRuntime(spec campaignd.CampaignSpec) (campaignd.Runtime, error) {
	factory, err := r.factory(spec)
	if err != nil {
		return campaignd.Runtime{}, err
	}
	return campaignd.Runtime{Factory: factory, FleetCfg: spec.FleetConfig()}, nil
}

func (r *serviceRig) factory(spec campaignd.CampaignSpec) (fleet.TargetFactory, error) {
	ts, cfg, err := target.FromCampaignSpec(spec)
	if err != nil {
		return nil, err
	}
	tr := r.tr
	return func(tsp fleet.TrialSpec) (*fleet.World, error) {
		tcfg := cfg
		tcfg.Seed = tsp.Seed
		var t0 int64
		if tr != nil {
			t0 = tr.now()
		}
		b, err := target.Build(ts, tcfg, target.Options{})
		if err != nil {
			return nil, err
		}
		if tr != nil {
			tr.span("target.build", t0, tr.now(), false)
			r.flush = instrument(b.World.Campaign)
		}
		return b.World, nil
	}, nil
}

// submit posts a campaign over HTTP, as canfuzz -submit does.
func (r *serviceRig) submit(spec campaignd.CampaignSpec) (string, error) {
	body, err := json.Marshal(campsrv.Submission{Spec: spec})
	if err != nil {
		return "", err
	}
	resp, err := r.ctl.Post(r.base+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return "", fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var v campsrv.CampaignView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return "", fmt.Errorf("submit response: %w", err)
	}
	return v.ID, nil
}

// report fetches a campaign's report.json, waiting out the brief window
// in which the drained campaign is still being finalised.
func (r *serviceRig) report(id string) ([]byte, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := r.ctl.Get(r.base + "/campaigns/" + id + "/report.json")
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			return body, nil
		case resp.StatusCode != http.StatusConflict:
			return nil, fmt.Errorf("report %s: %s: %s", id, resp.Status, bytes.TrimSpace(body))
		case time.Now().After(deadline):
			return nil, fmt.Errorf("report %s: campaign not finalised after 30s", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// runBatch starts a server, submits one campaign, lets one worker drain it
// and returns the lease-to-last-ack wall time and the final report bytes.
func (r *serviceRig) runBatch(baseSeed int64, trials int) (_ time.Duration, _ []byte, err error) {
	s, err := r.startServer()
	if err != nil {
		return 0, nil, err
	}
	defer func() {
		if serr := s.stop(); err == nil && serr != nil {
			err = fmt.Errorf("stop server: %w", serr)
		}
		r.transport.CloseIdleConnections()
	}()
	spec := r.load.spec(baseSeed, trials)
	id, err := r.submit(spec)
	if err != nil {
		return 0, nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r.rt.arm(spec.Trials, cancel)
	w := &campaignd.Worker{
		Client: &campaignd.Client{Base: r.base, HTTP: r.worker},
		Name:   "perfbench-worker",
		Build:  r.buildRuntime,
	}
	werr := w.Run(ctx)
	if r.tr != nil {
		r.tr.discardOpen()
	}
	r.rt.mu.Lock()
	first, last, got := r.rt.first, r.rt.last, r.rt.results
	r.rt.mu.Unlock()
	if got != spec.Trials {
		return 0, nil, fmt.Errorf("campaign %s: worker stopped after %d of %d results: %v", id, got, spec.Trials, werr)
	}
	if werr != nil && !errors.Is(werr, context.Canceled) {
		return 0, nil, fmt.Errorf("campaign %s: worker: %w", id, werr)
	}
	rep, err := r.report(id)
	if err != nil {
		return 0, nil, err
	}
	return last.Sub(first), rep, nil
}

// round runs every batch once in the given order, calling between after
// each batch; the round's wall time is the sum of the batches'
// lease-to-last-ack windows.
func (r *serviceRig) round(seeds []int64, perBatch int, order []int, between func()) (time.Duration, [][]byte, error) {
	out := make([][]byte, len(seeds))
	var wall time.Duration
	for _, b := range order {
		d, rep, err := r.runBatch(seeds[b], perBatch)
		if err != nil {
			return 0, nil, fmt.Errorf("batch %d: %w", b, err)
		}
		wall += d
		out[b] = rep
		between()
	}
	return wall, out, nil
}

// inProcessReport runs the same campaign spec through fleet.Run in this
// process (one worker, world reuse) — the reference the service's
// report.json must equal byte for byte.
func (r *serviceRig) inProcessReport(baseSeed int64, trials int) ([]byte, error) {
	spec := r.load.spec(baseSeed, trials)
	plain := &serviceRig{load: r.load}
	factory, err := plain.factory(spec)
	if err != nil {
		return nil, err
	}
	cfg := spec.FleetConfig()
	cfg.Workers = 1
	cfg.Pool = &fleet.WorldPool{}
	rep, err := fleet.Run(cfg, factory)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// newServiceTemplate is the service workload's campaign: bench target,
// blind mode, 200 ms virtual deadline per trial.
func newServiceTemplate() campaignd.CampaignSpec {
	return campaignd.CampaignSpec{
		Target:           "bench",
		BCMCheck:         "byte",
		StopOnFinding:    true,
		MaxPerTrialNanos: int64(200 * time.Millisecond),
		Config:           core.Config{}.ToJSON(),
	}
}
