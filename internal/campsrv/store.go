package campsrv

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/campaignd"
	"repro/internal/durable"
	"repro/internal/fleet"
)

// journalName is the per-campaign event log file inside <data>/<id>/, in
// the campaignd journal format (LoadJournal, OpenJournal).
const journalName = "events.jsonl"

// indexCampaign is one campaign's durable registry entry. The spec rides
// along as raw canonical bytes: the index alone is enough to reconstruct
// every lease book, and byte-keeping the spec means resume compatibility
// stays a byte comparison end to end.
type indexCampaign struct {
	ID          string          `json:"id"`
	Seq         int             `json:"seq"`
	State       State           `json:"state"`
	Priority    int             `json:"priority"`
	MaxInflight int             `json:"maxInflight,omitempty"`
	Error       string          `json:"error,omitempty"`
	Spec        json.RawMessage `json:"spec"`
}

// indexDoc is the <data>/index.json document.
type indexDoc struct {
	NextSeq   int             `json:"nextSeq"`
	Campaigns []indexCampaign `json:"campaigns"`
}

func (s *Server) indexPath() string { return filepath.Join(s.dataDir, "index.json") }

func (s *Server) campaignDir(id string) string { return filepath.Join(s.dataDir, id) }

func (s *Server) journalPath(id string) string {
	return filepath.Join(s.campaignDir(id), journalName)
}

// persistLocked writes the index durably (fsynced temp file + rename +
// directory fsync), so a crash mid-write leaves the previous index intact
// rather than a torn one.
func (s *Server) persistLocked() error {
	doc := indexDoc{NextSeq: s.nextSeq}
	for _, c := range s.bySeq {
		doc.Campaigns = append(doc.Campaigns, indexCampaign{
			ID: c.id, Seq: c.seq, State: c.state,
			Priority: c.priority, MaxInflight: c.maxInflight,
			Error: c.failure, Spec: json.RawMessage(c.specJSON),
		})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("campsrv: marshal index: %w", err)
	}
	if err := durable.WriteFile(s.indexPath(), append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("campsrv: write index: %w", err)
	}
	return nil
}

// createJournal starts a fresh campaign's event log.
func (s *Server) createJournal(c *campaign) (*os.File, error) {
	if err := os.MkdirAll(s.campaignDir(c.id), 0o755); err != nil {
		return nil, fmt.Errorf("campsrv: campaign dir %s: %w", c.id, err)
	}
	f, err := os.Create(s.journalPath(c.id))
	if err != nil {
		return nil, fmt.Errorf("campsrv: campaign %s journal: %w", c.id, err)
	}
	return f, nil
}

// resume reloads the whole data directory: the index names every campaign
// and its state; each journal supplies the completed trials. Interrupted
// campaigns (running/draining at crash time) whose journals already hold
// every result are finalised straight to done; the rest come back as live
// lease books seeded with their recovered results.
func (s *Server) resume() error {
	data, err := os.ReadFile(s.indexPath())
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("campsrv: %s holds no campaign state to resume (missing index.json)", s.dataDir)
		}
		return fmt.Errorf("campsrv: read index: %w", err)
	}
	var doc indexDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("campsrv: parse index: %w", err)
	}
	sort.Slice(doc.Campaigns, func(i, j int) bool { return doc.Campaigns[i].Seq < doc.Campaigns[j].Seq })

	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextSeq = doc.NextSeq
	for _, e := range doc.Campaigns {
		var spec campaignd.CampaignSpec
		if err := json.Unmarshal(e.Spec, &spec); err != nil {
			return fmt.Errorf("campsrv: campaign %s spec: %w", e.ID, err)
		}
		if err := spec.Validate(); err != nil {
			return fmt.Errorf("campsrv: campaign %s: %w", e.ID, err)
		}
		c := &campaign{
			id: e.ID, seq: e.Seq, state: e.State,
			priority: e.Priority, maxInflight: e.MaxInflight,
			spec: spec, specJSON: append([]byte(nil), e.Spec...),
			failure: e.Error,
		}
		if c.priority < 1 {
			c.priority = 1
		}
		if e.Seq >= s.nextSeq {
			s.nextSeq = e.Seq + 1
		}
		s.campaigns[c.id] = c
		s.bySeq = append(s.bySeq, c)

		switch e.State {
		case StateQueued, StateCancelled:
			// Nothing live to rebuild.
		case StateDone, StateRunning, StateDraining:
			if err := s.resumeCampaignLocked(c); err != nil {
				return err
			}
		default:
			return fmt.Errorf("campsrv: campaign %s has unknown state %q", e.ID, e.State)
		}
	}
	if err := s.persistLocked(); err != nil {
		return err
	}
	s.promoteLocked()
	if s.log != nil {
		s.log.Info("data directory resumed", "campaigns", len(s.bySeq),
			"running", len(s.ring), "next_seq", s.nextSeq)
	}
	return nil
}

// resumeCampaignLocked rebuilds one interrupted or completed campaign
// from its journal, reopened (torn tail cut) by campaignd.OpenJournal.
func (s *Server) resumeCampaignLocked(c *campaign) error {
	journal, j, err := campaignd.OpenJournal(s.journalPath(c.id))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) && c.state == StateRunning {
			// Crashed between the index write and the journal create:
			// nothing ran yet, start from scratch.
			c.state = StateQueued
			return nil
		}
		return fmt.Errorf("campsrv: campaign %s journal: %w", c.id, err)
	}
	defer func() {
		if journal != nil {
			journal.Close()
		}
	}()
	if j.TruncatedTail && s.log != nil {
		s.log.Warn("journal had a torn tail line; truncated", "campaign", c.id)
	}
	if j.Lines == 0 {
		// Journal created but never written: fresh start.
		c.state = StateQueued
		return nil
	}
	if err := j.Compatible(c.spec); err != nil {
		return fmt.Errorf("campsrv: campaign %s: %w", c.id, err)
	}
	if len(j.Results) == c.spec.Trials {
		// Every trial is durably recorded: a lease book born complete,
		// with no journal to write, rebuilds the report and the progress
		// view, and answers late results and heartbeats as it would have
		// before the restart.
		progress := fleet.NewProgress(nil)
		coord, err := campaignd.New(campaignd.Config{
			Spec: c.spec, LeaseTTL: s.ttl, Progress: progress, Resumed: j.Results,
		})
		if err != nil {
			return fmt.Errorf("campsrv: campaign %s journal: %w", c.id, err)
		}
		var buf bytes.Buffer
		if err := coord.Report().WriteJSON(&buf); err != nil {
			return fmt.Errorf("campsrv: campaign %s report: %w", c.id, err)
		}
		c.coord, c.progress = coord, progress
		c.state = StateDone
		c.reportJSON = buf.Bytes()
		if s.log != nil {
			s.log.Info("campaign report rebuilt from journal", "campaign", c.id,
				"trials", c.spec.Trials)
		}
		return nil
	}
	// Incomplete: back to a live lease book, which takes over the open
	// journal, with the recovered results.
	f := journal
	journal = nil
	return s.startLocked(c, f, j.Results)
}
