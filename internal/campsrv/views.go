package campsrv

import (
	"fmt"

	"repro/internal/campaignd"
	"repro/internal/fleet"
)

// CampaignView is one campaign as the API reports it: identity, state,
// scheduling knobs, and a live fleet.Progress snapshot (zero-valued for
// queued campaigns, final for done ones).
type CampaignView struct {
	ID          string `json:"id"`
	State       State  `json:"state"`
	Priority    int    `json:"priority"`
	MaxInflight int    `json:"maxInflight,omitempty"`
	Target      string `json:"target"`
	Trials      int    `json:"trials"`
	// Error records a terminal defect (journal finalisation failure, a
	// start that could not open its journal); the report may still exist.
	Error string `json:"error,omitempty"`
	// Progress is the live tracker snapshot — trials done, findings, ETA.
	Progress fleet.ProgressSnapshot `json:"progress"`
}

// CampaignDetail is the GET /campaigns/{id} document: the view plus the
// lease book's internals while one is open.
type CampaignDetail struct {
	CampaignView
	// Coordinator exposes the lease book (leased/pending/expiries/
	// duplicates) while the campaign is running or draining.
	Coordinator *campaignd.Status `json:"coordinator,omitempty"`
}

// FleetView is the GET /fleet.json document: every campaign plus
// fleet-wide aggregates, the operator's one-look overview.
type FleetView struct {
	Campaigns []CampaignView `json:"campaigns"`
	// Active and Queued count running and waiting campaigns; Leased sums
	// in-flight trials across every open lease book.
	Active       int  `json:"active"`
	Queued       int  `json:"queued"`
	Leased       int  `json:"leased"`
	ShuttingDown bool `json:"shuttingDown,omitempty"`
}

// viewLocked renders a campaign's API view; the server lock must be held.
func (s *Server) viewLocked(c *campaign) CampaignView {
	v := CampaignView{
		ID: c.id, State: c.state,
		Priority: c.priority, MaxInflight: c.maxInflight,
		Target: c.spec.Target, Trials: c.spec.Trials,
		Error: c.failure,
	}
	v.Progress = c.progress.Snapshot() // nil-safe: queued campaigns report zeros
	if v.Progress.TrialsTotal == 0 {
		v.Progress.TrialsTotal = c.spec.Trials
	}
	return v
}

// Campaigns lists every campaign in submission order.
func (s *Server) Campaigns() []CampaignView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]CampaignView, 0, len(s.bySeq))
	for _, c := range s.bySeq {
		out = append(out, s.viewLocked(c))
	}
	return out
}

// Detail returns one campaign's full status.
func (s *Server) Detail(id string) (CampaignDetail, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.campaigns[id]
	if c == nil {
		return CampaignDetail{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	d := CampaignDetail{CampaignView: s.viewLocked(c)}
	if c.coord != nil && (c.state == StateRunning || c.state == StateDraining) {
		st := c.coord.Snapshot()
		d.Coordinator = &st
	}
	return d, nil
}

// ReportJSON returns a completed campaign's serialised final report —
// byte-identical to the in-process fleet.Run report for the same spec.
func (s *Server) ReportJSON(id string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.campaigns[id]
	if c == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	switch c.state {
	case StateCancelled:
		return nil, fmt.Errorf("%w: %q", ErrGone, id)
	case StateDone:
		return c.reportJSON, nil
	default:
		return nil, fmt.Errorf("%w: %q is %s", ErrNotDone, id, c.state)
	}
}

// Fleet renders the fleet-wide aggregate view.
func (s *Server) Fleet() FleetView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := FleetView{ShuttingDown: s.shutdown}
	for _, c := range s.bySeq {
		v.Campaigns = append(v.Campaigns, s.viewLocked(c))
		switch c.state {
		case StateRunning:
			v.Active++
			v.Leased += c.coord.Leased()
		case StateQueued:
			v.Queued++
		}
	}
	return v
}
