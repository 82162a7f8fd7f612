package campaignd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/faults"
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
	// Factory builds a leased trial's world when the campaign has no
	// recycled world to reset.
	Factory fleet.TargetFactory
	// FleetCfg supplies the per-trial deadlines (from the spec's
	// FleetConfig; only MaxPerTrial and TrialTimeout are consulted).
	FleetCfg fleet.Config

	// pool recycles the campaign's world between its leased trials; the
	// worker gives each cached runtime its own.
	pool *fleet.WorldPool
}

// RuntimeBuilder maps a fetched campaign spec onto an executable runtime.
// The worker calls it the first time the scheduler hands it one of a
// campaign's trials and caches the result, with the campaign's recycled
// world, until the campaign drains or is gone; a spec that does not build
// is tried again on the campaign's next lease. A worker running one trial
// at a time therefore builds one world per campaign when the factory's
// worlds advertise Reset, and one per trial otherwise.
type RuntimeBuilder func(spec CampaignSpec) (Runtime, error)

// Worker executes leased trials until the server reports no work left. It
// is campaign-agnostic: each lease names the campaign it belongs to, the
// worker fetches and caches that campaign's spec-derived runtime, and
// executes the trial through the runtime's fleet.WorldPool — the warm
// path an in-process fleet worker runs: the campaign's previous world is
// reset in place, or built through the factory when there is none or its
// reset fails — so a trial's result does not depend on which process
// computed it.
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

	// runtimes caches the built runtime, and with it the campaign's
	// recycled world, per campaign ID across leases. An entry is dropped
	// when a submit ack says its campaign drained or is gone, so a
	// long-lived worker holds no world for a campaign it saw finish.
	// Campaigns whose spec does not build are never cached: each of their
	// leases fetches the spec again, which is how the worker learns that
	// such a campaign is gone.
	runtimes map[string]Runtime
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
	rng := rand.New(faults.SeedPCG(new(rand.PCG), time.Now().UnixNano()))
	w.runtimes = map[string]Runtime{}

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
		if ack.CampaignDone || ack.Gone {
			delete(w.runtimes, lease.Campaign)
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
// (gone, or its spec does not build) — skip, don't crash: one bad campaign
// must not take down a worker serving many good ones. A non-nil error is
// fatal to the worker (transport budget exhausted or cancellation).
func (w *Worker) runtime(ctx context.Context, campaign string, policy retry.Policy, attempts int, rng *rand.Rand) (Runtime, bool, error) {
	if rt, ok := w.runtimes[campaign]; ok {
		return rt, true, nil
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
	rt.pool = &fleet.WorldPool{}
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
	// Heartbeat at a third of the TTL while the trial computes, from one
	// self-re-arming timer. Failures are logged, not fatal: if the lease is
	// gone the trial is re-running elsewhere with identical content; if the
	// server is down it may be back before the submission's retries run out.
	// hbMu spans each heartbeat and the trial's end clears hb under it, so
	// none is in flight or starts once the submit begins.
	interval := lease.TTL / 3
	if interval <= 0 {
		interval = time.Second
	}
	var hbMu sync.Mutex
	var hb *time.Timer
	hbMu.Lock()
	hb = time.AfterFunc(interval, func() {
		hbMu.Lock()
		defer hbMu.Unlock()
		if hb == nil || ctx.Err() != nil {
			return
		}
		if err := w.Client.Heartbeat(lease.Campaign, lease.ID); err != nil && w.Logger != nil {
			w.Logger.Warn("heartbeat failed", "worker", w.Name,
				"campaign", lease.Campaign, "trial", lease.Trial,
				"lease", lease.ID, "err", err)
		}
		hb.Reset(interval)
	})
	hbMu.Unlock()

	spec := fleet.TrialSpec{Index: lease.Trial, Seed: lease.Seed}
	res := rt.pool.RunTrial(spec, rt.FleetCfg, rt.Factory)
	hbMu.Lock()
	hb.Stop()
	hb = nil
	hbMu.Unlock()

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
