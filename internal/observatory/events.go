package observatory

import (
	"io"
	"strconv"
	"sync"

	"repro/internal/fleet"
)

// Event types. Together they are the journal vocabulary of the campaign
// service; DESIGN §11 documents the schema.
const (
	// EventTrialStart marks a worker picking up a trial.
	EventTrialStart = "trial_start"
	// EventTrialEnd carries a trial's classified outcome and counters.
	EventTrialEnd = "trial_end"
	// EventFinding carries the first finding of a finding trial.
	EventFinding = "finding"
	// EventCorpusMerge reports a trial contributing its evolved corpus to
	// the fleet merge.
	EventCorpusMerge = "corpus_merge"
	// EventCheckpoint is a campaign-scope progress mark (every
	// CheckpointEvery-th completed trial, and the last).
	EventCheckpoint = "checkpoint"
	// EventCampaignStart opens a distributed campaign journal: its Raw
	// payload is the serialised campaignd spec, which lets a restarted
	// server verify a journal belongs to the campaign it is resuming.
	EventCampaignStart = "campaign_start"
	// EventTrialResult carries a complete serialised fleet.TrialResult in
	// Raw — the service's durable record of an accepted trial, precise
	// enough to rebuild the final report from the journal alone.
	EventTrialResult = "trial_result"
)

// Event is one line of the campaign event log. Which fields are populated
// depends on Type; MarshalJSONL emits exactly the populated set in a fixed
// order, so a line's bytes are a pure function of its content. All
// timestamps are virtual — wall time never enters the log — and every
// per-trial event carries (Trial, Seq) sequencing metadata, which is what
// makes a *sorted* log byte-reproducible across worker counts: emission
// order varies with scheduling, content does not.
type Event struct {
	// Type is one of the Event* constants.
	Type string
	// Trial is the trial index, or -1 for campaign-scope events.
	Trial int
	// Seq numbers the events of one trial (0 = trial_start); for
	// checkpoints it is the completed-trial count, which is unique.
	Seq int
	// Seed is the trial's derived seed (trial_start).
	Seed int64
	// Status classifies the outcome (trial_end).
	Status string
	// VirtualNanos is the trial's virtual elapsed time (trial_end) or the
	// virtual time of the finding (finding).
	VirtualNanos int64
	// Frames is the trial's sent-frame count (trial_end) or its corpus
	// contribution size (corpus_merge).
	Frames uint64
	// SendErrors and Findings are trial_end counters.
	SendErrors uint64
	Findings   int
	// Oracle, Detail and TriggerID describe a finding.
	Oracle, Detail, TriggerID string
	// Completed and Total are checkpoint progress counts.
	Completed, Total int
	// Raw is an opaque pre-marshalled JSON payload: the campaign spec
	// (campaign_start) or a full fleet.TrialResult (trial_result). It must
	// already be valid compact JSON; MarshalJSONL embeds it verbatim, which
	// keeps the line bytes a pure function of the payload bytes.
	Raw []byte
}

// CheckpointEvery is the checkpoint cadence of the event log and of the
// campaign service journal: a checkpoint follows every CheckpointEvery-th
// completed trial and the campaign's last one.
const CheckpointEvery = 10

// TrialStart is the event that opens a trial when a worker first picks it
// up.
func TrialStart(trial int, seed int64) Event {
	return Event{Type: EventTrialStart, Trial: trial, Seq: 0, Seed: seed}
}

// AppendTrialEvents appends a finished trial's events to dst — its finding
// (when it ended in one), trial_end, and corpus_merge (when it evolved a
// corpus), sequenced from 1 — and returns the extended slice and the next
// free seq. Their content is a pure function of the result, so the
// in-process event log (Observatory) and the campaign service journal
// (campaignd.Coordinator), which both build them here, agree line for
// line.
func AppendTrialEvents(dst []Event, res fleet.TrialResult) ([]Event, int) {
	seq := 1
	if res.Status == fleet.StatusFinding {
		dst = append(dst, Event{
			Type: EventFinding, Trial: res.Trial, Seq: seq,
			VirtualNanos: int64(res.TimeToFinding),
			Oracle:       res.Oracle, Detail: res.Detail, TriggerID: res.TriggerID,
		})
		seq++
	}
	dst = append(dst, Event{
		Type: EventTrialEnd, Trial: res.Trial, Seq: seq,
		Status:       res.Status,
		VirtualNanos: int64(res.VirtualElapsed),
		Frames:       res.FramesSent,
		SendErrors:   res.SendErrors,
		Findings:     res.Findings,
	})
	seq++
	if n := len(res.Corpus); n > 0 {
		dst = append(dst, Event{
			Type: EventCorpusMerge, Trial: res.Trial, Seq: seq,
			Frames: uint64(n),
		})
		seq++
	}
	return dst, seq
}

// Checkpoint returns the checkpoint event for completed of total trials
// and whether the cadence calls for one there. The event carries only the
// count, so it does not depend on which trials finished first.
func Checkpoint(completed, total int) (Event, bool) {
	return Event{
		Type: EventCheckpoint, Trial: -1, Seq: completed,
		Completed: completed, Total: total,
	}, completed%CheckpointEvery == 0 || completed == total
}

// MarshalJSONL appends the event as one JSON line (no trailing newline)
// with a stable field order.
func (e Event) MarshalJSONL(b []byte) []byte {
	b = append(b, `{"type":`...)
	b = appendJSONString(b, e.Type)
	b = append(b, `,"trial":`...)
	b = strconv.AppendInt(b, int64(e.Trial), 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendInt(b, int64(e.Seq), 10)
	switch e.Type {
	case EventTrialStart:
		b = append(b, `,"seed":`...)
		b = strconv.AppendInt(b, e.Seed, 10)
	case EventFinding:
		b = append(b, `,"vtimeNanos":`...)
		b = strconv.AppendInt(b, e.VirtualNanos, 10)
		b = append(b, `,"oracle":`...)
		b = appendJSONString(b, e.Oracle)
		b = append(b, `,"detail":`...)
		b = appendJSONString(b, e.Detail)
		b = append(b, `,"triggerId":`...)
		b = appendJSONString(b, e.TriggerID)
	case EventTrialEnd:
		b = append(b, `,"status":`...)
		b = appendJSONString(b, e.Status)
		b = append(b, `,"vtimeNanos":`...)
		b = strconv.AppendInt(b, e.VirtualNanos, 10)
		b = append(b, `,"frames":`...)
		b = strconv.AppendUint(b, e.Frames, 10)
		b = append(b, `,"sendErrors":`...)
		b = strconv.AppendUint(b, e.SendErrors, 10)
		b = append(b, `,"findings":`...)
		b = strconv.AppendInt(b, int64(e.Findings), 10)
	case EventCorpusMerge:
		b = append(b, `,"frames":`...)
		b = strconv.AppendUint(b, e.Frames, 10)
	case EventCheckpoint:
		b = append(b, `,"completed":`...)
		b = strconv.AppendInt(b, int64(e.Completed), 10)
		b = append(b, `,"total":`...)
		b = strconv.AppendInt(b, int64(e.Total), 10)
	case EventCampaignStart:
		b = append(b, `,"spec":`...)
		b = append(b, e.Raw...)
	case EventTrialResult:
		b = append(b, `,"result":`...)
		b = append(b, e.Raw...)
	}
	return append(b, '}')
}

// appendJSONString appends s as a JSON string literal, escaping quotes,
// backslashes and control characters.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c >= 0x20:
			b = append(b, c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\t':
			b = append(b, '\\', 't')
		case c == '\r':
			b = append(b, '\\', 'r')
		default:
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
	}
	return append(b, '"')
}

// sinkRingCap bounds the in-memory tail kept for /events long-polling.
// The file (when one is attached) always holds the full log.
const sinkRingCap = 8192

// Sink is the append-only JSONL event stream: every Emit or EmitBatch
// marshals its lines, appends them to the writer (the -events file or a
// service journal) in one Write and retains them in a bounded ring for
// HTTP tailing. Marshalling happens outside the lock, so concurrent fleet
// workers contend only for the append itself. A nil *Sink drops
// everything — the no-op path for campaigns run without an event log.
type Sink struct {
	mu      sync.Mutex
	w       io.Writer // may be nil: ring-only sink for HTTP tailing
	err     error     // first write error, sticky
	closed  bool      // terminal: no more lines will ever arrive
	ring    [][]byte  // last sinkRingCap lines, without trailing newline
	base    uint64    // index of ring[0] in the full stream
	count   uint64    // lines emitted so far
	waiters []chan struct{}
}

// NewSink returns a sink streaming to w (nil keeps lines only in the
// tail ring).
func NewSink(w io.Writer) *Sink {
	return &Sink{w: w}
}

// Emit appends one event. Safe for concurrent use; nil-safe.
func (s *Sink) Emit(e Event) {
	s.EmitBatch([]Event{e})
}

// EmitBatch appends events in order as one unit: their lines go to the
// writer in a single Write, enter the tail ring together and wake the
// long-poll waiters once. The bytes written are those of one Emit per
// event. Safe for concurrent use; nil-safe.
func (s *Sink) EmitBatch(evs []Event) {
	if s == nil || len(evs) == 0 {
		return
	}
	// Marshal into scratch space, then copy into an exactly sized buffer:
	// the tail ring keeps the lines, and with them the whole buffer.
	var scratch [2048]byte
	tmp := scratch[:0]
	var endsBuf [8]int
	ends := endsBuf[:0] // end of each line, before its newline
	for i := range evs {
		tmp = evs[i].MarshalJSONL(tmp)
		ends = append(ends, len(tmp))
		tmp = append(tmp, '\n')
	}
	buf := append([]byte(nil), tmp...)
	s.mu.Lock()
	if s.w != nil && s.err == nil {
		if _, err := s.w.Write(buf); err != nil {
			s.err = err
		}
	}
	start := 0
	for _, end := range ends {
		s.ring = append(s.ring, buf[start:end:end])
		start = end + 1
	}
	s.count += uint64(len(ends))
	if len(s.ring) > sinkRingCap {
		drop := len(s.ring) - sinkRingCap
		s.ring = s.ring[drop:]
		s.base += uint64(drop)
	}
	waiters := s.waiters
	s.waiters = nil
	s.mu.Unlock()
	for _, ch := range waiters {
		close(ch)
	}
}

// Close marks the stream terminal and wakes every long-poll waiter: no
// further lines will arrive, so a poller blocked in Changed must return
// now instead of holding its goroutine (and its HTTP connection) until
// some never-coming event. Close does not close the underlying writer —
// the caller owns the -events file — but it does return the sink's sticky
// write error so shutdown paths surface a silently broken event log.
// Emit after Close still records the line (late worker results are data,
// not errors); it just no longer has anyone to wake. Nil-safe, idempotent.
func (s *Sink) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.closed = true
	waiters := s.waiters
	s.waiters = nil
	err := s.err
	s.mu.Unlock()
	for _, ch := range waiters {
		close(ch)
	}
	return err
}

// Err returns the first write error, if any.
func (s *Sink) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Waiting returns the number of long-poll waiters currently parked in
// Changed — the observable that shutdown paths (and their tests) use to
// know the pollers have actually registered before tearing down.
func (s *Sink) Waiting() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.waiters)
}

// Count returns the number of lines emitted so far.
func (s *Sink) Count() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Since returns up to max lines starting at stream index cursor, the
// index to resume from, and the index the returned batch actually starts
// at (later than cursor when the ring has dropped older lines; the full
// history lives in the event file). The returned slices are the ring's
// own lines — callers must not mutate them.
func (s *Sink) Since(cursor uint64, max int) (lines [][]byte, next, from uint64) {
	if s == nil {
		return nil, cursor, cursor
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cursor < s.base {
		cursor = s.base
	}
	if cursor > s.count {
		cursor = s.count
	}
	from = cursor
	avail := int(s.count - cursor)
	if max > 0 && avail > max {
		avail = max
	}
	start := int(cursor - s.base)
	lines = s.ring[start : start+avail]
	return lines, cursor + uint64(avail), from
}

// Changed returns a channel that is closed once the stream grows past
// cursor — the long-poll primitive behind /events?since=N. On a closed
// sink the channel comes back already closed: the stream is terminal, so
// waiting would block forever.
func (s *Sink) Changed(cursor uint64) <-chan struct{} {
	ch := make(chan struct{})
	if s == nil {
		close(ch)
		return ch
	}
	s.mu.Lock()
	if s.count > cursor || s.closed {
		s.mu.Unlock()
		close(ch)
		return ch
	}
	s.waiters = append(s.waiters, ch)
	s.mu.Unlock()
	return ch
}
