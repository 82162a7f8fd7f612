package campaignd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"time"

	"repro/internal/fleet"
	"repro/internal/retry"
)

// DefaultTransportRetry is the worker's backoff for server outages. The
// cap is generous relative to the base because the interesting outage is a
// server crash-and-resume: the worker must still be polling when the
// restarted server comes back up with its journals reloaded.
var DefaultTransportRetry = retry.Policy{
	Base:   200 * time.Millisecond,
	Cap:    2 * time.Second,
	Jitter: 0.5,
}

// DefaultTransportAttempts bounds consecutive failed calls before the
// worker gives up on the server entirely.
const DefaultTransportAttempts = 60

// Runtime is everything a worker needs to execute one campaign's trials:
// the world factory and the fleet configuration (deadlines) both sides
// agreed on through the spec.
type Runtime struct {
	// Factory builds each leased trial's world.
	Factory fleet.TargetFactory
	// FleetCfg supplies the per-trial deadlines (from the spec's
	// FleetConfig; only MaxPerTrial and TrialTimeout are consulted).
	FleetCfg fleet.Config
}

// RuntimeBuilder maps a fetched campaign spec onto an executable runtime.
// The worker calls it once per campaign — the first time the scheduler
// hands it one of that campaign's trials — and caches the result across
// leases, so a worker serving many campaigns builds each campaign's world
// recipe exactly once.
type RuntimeBuilder func(spec CampaignSpec) (Runtime, error)

// Worker executes leased trials until the server reports no work left. It
// is campaign-agnostic: each lease names the campaign it belongs to, the
// worker fetches and caches that campaign's spec-derived runtime, and
// executes the trial through fleet.RunTrial — the same function an
// in-process fleet worker runs — so a trial's result does not depend on
// which process computed it.
type Worker struct {
	// Client reaches the server (required).
	Client *Client
	// Name identifies the worker in server logs.
	Name string
	// Build maps campaign specs onto runtimes (required).
	Build RuntimeBuilder
	// Logger, when non-nil, receives per-trial lines.
	Logger *slog.Logger
	// Transport is the backoff for server outages (default
	// DefaultTransportRetry).
	Transport retry.Policy
	// TransportAttempts bounds consecutive transport failures (default
	// DefaultTransportAttempts).
	TransportAttempts int

	// runtimes caches the built runtime per campaign ID across leases.
	runtimes map[string]Runtime
	// broken records campaigns whose spec could not be built — skipped on
	// subsequent leases instead of crashing the worker (one bad campaign
	// must not take down a fleet serving many good ones).
	broken map[string]error
}

// Run leases, executes and submits trials until done. It returns nil when
// the server reports no work left (it is shutting down), ctx.Err on
// cancellation, and a transport error only after TransportAttempts
// consecutive failed calls — a server crash shorter than that window is
// invisible apart from latency. A submit ack that only says *this campaign* drained does not
// end the worker: it re-polls the scheduler, which may hold other
// campaigns' trials.
func (w *Worker) Run(ctx context.Context) error {
	if w.Client == nil || w.Build == nil {
		return errors.New("campaignd: worker needs Client and Build")
	}
	policy := w.Transport
	if policy.Base <= 0 {
		policy = DefaultTransportRetry
	}
	attempts := w.TransportAttempts
	if attempts <= 0 {
		attempts = DefaultTransportAttempts
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	w.runtimes = map[string]Runtime{}
	w.broken = map[string]error{}

	for {
		var lease Lease
		err := retry.Do(ctx, policy, attempts, rng, func() error {
			var lerr error
			lease, lerr = w.Client.Lease(w.Name)
			return lerr
		})
		if err != nil {
			return fmt.Errorf("campaignd: worker %s: lease: %w", w.Name, err)
		}
		switch lease.Status {
		case LeaseDone:
			if w.Logger != nil {
				w.Logger.Info("no work left, worker exiting", "worker", w.Name)
			}
			return nil
		case LeaseWait:
			wait := lease.RetryAfter
			if wait <= 0 {
				wait = 250 * time.Millisecond
			}
			if err := retry.Sleep(ctx, wait); err != nil {
				return err
			}
			continue
		case LeaseGranted:
		default:
			return fmt.Errorf("campaignd: worker %s: unknown lease status %q", w.Name, lease.Status)
		}

		rt, ok, err := w.runtime(ctx, lease.Campaign, policy, attempts, rng)
		if err != nil {
			return err
		}
		if !ok {
			// Unbuildable or vanished campaign: let the lease expire and be
			// someone else's (or a fixed server's) problem; keep serving the
			// rest of the fleet.
			if err := retry.Sleep(ctx, time.Second); err != nil {
				return err
			}
			continue
		}

		ack, err := w.runLeased(ctx, lease, rt, policy, attempts, rng)
		if err != nil {
			return err
		}
		if ack.Done {
			if w.Logger != nil {
				w.Logger.Info("no work left, worker exiting", "worker", w.Name)
			}
			return nil
		}
		if ack.CampaignDone && w.Logger != nil {
			// This campaign drained, but the scheduler may hold others:
			// re-poll instead of exiting (the multi-campaign shutdown fix).
			w.Logger.Info("campaign drained, re-polling scheduler",
				"worker", w.Name, "campaign", lease.Campaign)
		}
	}
}

// runtime returns the cached runtime for the campaign, fetching and
// building it on first use. ok=false means this campaign cannot be served
// (gone, or its spec does not build) — skip, don't crash. A non-nil error
// is fatal to the worker (transport budget exhausted or cancellation).
func (w *Worker) runtime(ctx context.Context, campaign string, policy retry.Policy, attempts int, rng *rand.Rand) (Runtime, bool, error) {
	if rt, ok := w.runtimes[campaign]; ok {
		return rt, true, nil
	}
	if berr, bad := w.broken[campaign]; bad {
		if w.Logger != nil {
			w.Logger.Warn("skipping lease for unbuildable campaign",
				"worker", w.Name, "campaign", campaign, "err", berr)
		}
		return Runtime{}, false, nil
	}
	var spec CampaignSpec
	err := retry.Do(ctx, policy, attempts, rng, func() error {
		s, serr := w.Client.Spec(campaign)
		if errors.Is(serr, ErrCampaignGone) {
			// Terminal, not transient: stop the retry loop by succeeding
			// with a sentinel spec and handle it below.
			spec = CampaignSpec{}
			return nil
		}
		if serr == nil {
			spec = s
		}
		return serr
	})
	if err != nil {
		return Runtime{}, false, fmt.Errorf("campaignd: worker %s: fetch spec for campaign %q: %w",
			w.Name, campaign, err)
	}
	if spec.Target == "" {
		if w.Logger != nil {
			w.Logger.Warn("campaign vanished before its spec was fetched",
				"worker", w.Name, "campaign", campaign)
		}
		return Runtime{}, false, nil
	}
	rt, err := w.Build(spec)
	if err != nil {
		w.broken[campaign] = err
		if w.Logger != nil {
			w.Logger.Error("campaign spec does not build on this worker",
				"worker", w.Name, "campaign", campaign, "err", err)
		}
		return Runtime{}, false, nil
	}
	if w.Logger != nil {
		w.Logger.Info("campaign runtime cached", "worker", w.Name,
			"campaign", campaign, "target", spec.Target, "trials", spec.Trials)
	}
	w.runtimes[campaign] = rt
	return rt, true, nil
}

// runLeased heartbeats and executes one leased trial, then submits it,
// returning the submit ack.
func (w *Worker) runLeased(ctx context.Context, lease Lease, rt Runtime, policy retry.Policy, attempts int, rng *rand.Rand) (SubmitAck, error) {
	if w.Logger != nil {
		w.Logger.Info("trial leased", "worker", w.Name, "campaign", lease.Campaign,
			"trial", lease.Trial, "lease", lease.ID)
	}
	// Heartbeat at a third of the TTL while the trial computes. Heartbeat
	// failures are logged, not fatal: if the lease is gone the trial is
	// re-running elsewhere with identical content; if the server is down it
	// may be back before the submission's retry budget runs out.
	hbCtx, stopHB := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		interval := lease.TTL / 3
		if interval <= 0 {
			interval = time.Second
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				if err := w.Client.Heartbeat(lease.Campaign, lease.ID); err != nil && w.Logger != nil {
					w.Logger.Warn("heartbeat failed", "worker", w.Name,
						"campaign", lease.Campaign, "trial", lease.Trial,
						"lease", lease.ID, "err", err)
				}
			}
		}
	}()

	spec := fleet.TrialSpec{Index: lease.Trial, Seed: lease.Seed}
	res := fleet.RunTrial(spec, rt.FleetCfg, rt.Factory)
	stopHB()
	<-hbDone

	body, err := json.Marshal(res)
	if err != nil {
		return SubmitAck{}, fmt.Errorf("campaignd: worker %s: marshal result: %w", w.Name, err)
	}
	var ack SubmitAck
	err = retry.Do(ctx, policy, attempts, rng, func() error {
		a, serr := w.Client.Submit(lease.Campaign, lease.Trial, lease.ID, w.Name, body)
		if serr == nil {
			ack = a
		}
		return serr
	})
	if err != nil {
		return SubmitAck{}, fmt.Errorf("campaignd: worker %s: submit trial %d: %w", w.Name, lease.Trial, err)
	}
	if w.Logger != nil {
		if ack.Gone {
			w.Logger.Warn("result dropped: campaign gone", "worker", w.Name,
				"campaign", lease.Campaign, "trial", lease.Trial)
		} else {
			w.Logger.Info("trial submitted", "worker", w.Name, "campaign", lease.Campaign,
				"trial", lease.Trial, "status", res.Status)
		}
	}
	return ack, nil
}
