// Package campaignd is the machinery under the distributed campaign
// service (internal/campsrv, cmd/canfuzzd): the per-campaign lease book
// (Coordinator), the worker loop that executes leased trials on one
// recycled world per campaign (fleet.WorldPool.RunTrial), its HTTP client,
// the wire spec, and the journal codec.
//
// The design goal is the fleet package's determinism guarantee stretched
// over an unreliable network of crashing processes. It holds because
// nothing that matters ever depends on wall time or topology:
//
//   - Trial i's seed is faults.DeriveSeed(BaseSeed, i) — a pure function,
//     computed identically by the lease book and the workers.
//   - A trial's result is a pure function of its seed: the worker runs it
//     through the same warm path an in-process fleet worker uses, on the
//     campaign's previous world reset in place or a fresh one, and
//     reset-then-run is pinned bit-identical to fresh-build-then-run. Its
//     JSON serialisation is lossless for every field the report keeps
//     (wall-clock phase timings are excluded from JSON on both sides), so
//     a result that crossed the wire is byte-equivalent to one produced
//     in-process.
//   - The final report is fleet.NewReport over the results in trial-index
//     order — the exact aggregation path fleet.Run uses.
//
// Leases make worker crashes survivable: a worker that stops heartbeating
// loses its lease and the trial is re-dispatched (with capped, jittered
// backoff via internal/retry). Duplicate submissions — a slow worker
// racing its re-dispatched replacement — are idempotent because both
// computed the same bytes; the first accepted result wins and the journal
// records each trial exactly once. Server crashes are survivable through
// the journal: every accepted result is appended to the observatory event
// log as a trial_result line, and a restarted server reopens that log
// (OpenJournal), skipping completed trials and re-leasing the rest.
//
// The lease book is a plain state machine, not safe for concurrent use:
// campsrv serialises every call under its one server lock. It tracks only
// the trials in flight and those waiting to be re-dispatched, so no call
// walks every trial. DESIGN §12 documents the full state machine.
package campaignd

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
)

// CampaignSpec is the wire description of a distributed campaign: enough
// for a worker to reconstruct the exact world a trial needs, and for a
// restarted server to verify a journal belongs to the campaign it is
// resuming. It is serialised compactly (stable struct field order) into
// the campaign_start journal line.
type CampaignSpec struct {
	// Target names the simulated system under test ("bench", "cluster",
	// "vehicle") — interpreted by the canfuzz world builder, not here.
	Target string `json:"target"`
	// Bus selects the bus variant (canfuzz -bus).
	Bus string `json:"bus,omitempty"`
	// BCMCheck is the bench unlock-check mode (canfuzz -check).
	BCMCheck string `json:"bcmCheck,omitempty"`
	// StopOnFinding stops each trial's campaign at its first finding.
	StopOnFinding bool `json:"stopOnFinding,omitempty"`
	// Recovery arms the default resilience policy (canfuzz -recover).
	Recovery bool `json:"recovery,omitempty"`

	// Trials and BaseSeed shard the campaign: trial i runs with seed
	// faults.DeriveSeed(BaseSeed, i).
	Trials   int   `json:"trials"`
	BaseSeed int64 `json:"baseSeed"`
	// MaxPerTrialNanos is the per-trial virtual deadline.
	MaxPerTrialNanos int64 `json:"maxPerTrialNanos"`
	// TrialTimeoutNanos is the per-trial wall-clock stall budget (0 = none);
	// see fleet.Config.TrialTimeout.
	TrialTimeoutNanos int64 `json:"trialTimeoutNanos,omitempty"`

	// Config is the campaign generator configuration.
	Config core.ConfigJSON `json:"config"`
}

// MaxTrials bounds a spec's trial count. The lease book keeps a record
// per trial from the moment a campaign starts, so an unbounded count in a
// submission would let one request exhaust the server's memory.
const MaxTrials = 100_000

// Validate checks the shardable parts of the spec. Target-string validity
// is the world builder's concern (the CLI rejects unknown targets before a
// spec is ever served).
func (s CampaignSpec) Validate() error {
	if s.Target == "" {
		return errors.New("campaignd: spec has no target")
	}
	if s.Trials < 1 || s.Trials > MaxTrials {
		return fmt.Errorf("campaignd: spec needs 1 <= Trials <= %d, got %d", MaxTrials, s.Trials)
	}
	if s.MaxPerTrialNanos <= 0 {
		return errors.New("campaignd: spec needs MaxPerTrialNanos > 0")
	}
	if _, err := s.Config.ToConfig(); err != nil {
		return fmt.Errorf("campaignd: spec config: %w", err)
	}
	return nil
}

// FleetConfig maps the spec onto the fleet configuration both sides use:
// the worker passes it to fleet.WorldPool.RunTrial, the lease book to
// fleet.NewReport — so deadline semantics cannot diverge.
func (s CampaignSpec) FleetConfig() fleet.Config {
	return fleet.Config{
		Trials:       s.Trials,
		BaseSeed:     s.BaseSeed,
		MaxPerTrial:  time.Duration(s.MaxPerTrialNanos),
		TrialTimeout: time.Duration(s.TrialTimeoutNanos),
	}
}

// Canonical renders the spec compactly: the bytes of the campaign_start
// journal line, which a resume byte-compares (Journal.Compatible here, the
// multi-campaign service in campsrv).
func (s CampaignSpec) Canonical() ([]byte, error) { return json.Marshal(s) }
