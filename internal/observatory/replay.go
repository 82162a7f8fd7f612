package observatory

import (
	"encoding/json"
	"fmt"
)

// Event-log replay: the inverse of Event.MarshalJSONL, used by the
// campaign journal codec (internal/campaignd) to rebuild campaign state
// from its journal after a crash. Parsing is deliberately tolerant of
// unknown fields so older binaries can read logs written by newer ones;
// what it will not tolerate is a line that is not a JSON object with a
// string "type" — that marks a corrupt journal, not a version skew.

// wireEvent mirrors every key MarshalJSONL can emit. The two opaque
// payloads stay raw: the journal codec decodes them against its own spec
// and fleet.TrialResult types.
type wireEvent struct {
	Type         string          `json:"type"`
	Trial        int             `json:"trial"`
	Seq          int             `json:"seq"`
	Seed         int64           `json:"seed"`
	Status       string          `json:"status"`
	VirtualNanos int64           `json:"vtimeNanos"`
	Frames       uint64          `json:"frames"`
	SendErrors   uint64          `json:"sendErrors"`
	Findings     int             `json:"findings"`
	Oracle       string          `json:"oracle"`
	Detail       string          `json:"detail"`
	TriggerID    string          `json:"triggerId"`
	Completed    int             `json:"completed"`
	Total        int             `json:"total"`
	Spec         json.RawMessage `json:"spec"`
	Result       json.RawMessage `json:"result"`
}

// ParseLine decodes one JSONL event line (without or with its trailing
// newline) back into an Event. For campaign_start and trial_result the
// opaque payload lands in Event.Raw.
func ParseLine(line []byte) (Event, error) {
	var w wireEvent
	if err := json.Unmarshal(line, &w); err != nil {
		return Event{}, fmt.Errorf("observatory: bad event line: %w", err)
	}
	if w.Type == "" {
		return Event{}, fmt.Errorf("observatory: event line missing type: %.80s", line)
	}
	e := Event{
		Type: w.Type, Trial: w.Trial, Seq: w.Seq, Seed: w.Seed,
		Status: w.Status, VirtualNanos: w.VirtualNanos,
		Frames: w.Frames, SendErrors: w.SendErrors, Findings: w.Findings,
		Oracle: w.Oracle, Detail: w.Detail, TriggerID: w.TriggerID,
		Completed: w.Completed, Total: w.Total,
	}
	switch w.Type {
	case EventCampaignStart:
		e.Raw = []byte(w.Spec)
	case EventTrialResult:
		e.Raw = []byte(w.Result)
	}
	return e, nil
}
