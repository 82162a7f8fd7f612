// Package capture records, serialises and replays CAN traffic.
//
// The paper's methodology depends on traffic capture twice over: "Often the
// only way to determine what a particular CAN message does is to capture
// the network packets while operating a vehicle feature" (§II), and the
// targeted-fuzzing recommendation (§VII) needs a list of observed
// identifiers. This package provides the recorder (attachable as a bus
// tap), a text log format compatible in spirit with candump/SavvyCAN logs,
// and a replayer that re-transmits a trace with original timing.
package capture

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/clock"
)

// Record is one captured frame with its bus timestamp.
type Record struct {
	// Time is the virtual capture instant.
	Time time.Duration
	// Frame is the captured frame.
	Frame can.Frame
	// Origin names the transmitting node, when known.
	Origin string
}

// String renders a record in the paper's Table II layout:
// "5328.009 043A 8 1C 21 17 71 17 71 FF FF" (milliseconds, id, len, data).
func (r Record) String() string {
	return fmt.Sprintf("%.3f %s", float64(r.Time)/float64(time.Millisecond), r.Frame)
}

// Trace is an in-memory sequence of records.
type Trace struct {
	records []Record
	limit   int
}

// NewTrace creates a trace. limit bounds memory (0 = unbounded); when full,
// the oldest records are dropped (ring behaviour), matching a bounded
// capture buffer.
func NewTrace(limit int) *Trace {
	return &Trace{limit: limit}
}

// Append adds a record.
func (t *Trace) Append(r Record) {
	t.records = append(t.records, r)
	if t.limit > 0 && len(t.records) > t.limit {
		drop := len(t.records) - t.limit
		t.records = append(t.records[:0], t.records[drop:]...)
	}
}

// Len returns the number of stored records.
func (t *Trace) Len() int { return len(t.records) }

// Records returns a copy of the stored records.
func (t *Trace) Records() []Record {
	out := make([]Record, len(t.records))
	copy(out, t.records)
	return out
}

// IDs returns the distinct identifiers observed, in first-seen order — the
// input to targeted fuzzing.
func (t *Trace) IDs() []can.ID {
	seen := make(map[can.ID]bool)
	var out []can.ID
	for _, r := range t.records {
		if !seen[r.Frame.ID] {
			seen[r.Frame.ID] = true
			out = append(out, r.Frame.ID)
		}
	}
	return out
}

// Recorder attaches a trace to a bus as a passive tap.
type Recorder struct {
	trace *Trace
}

// NewRecorder creates a recorder backed by a bounded trace and registers it
// on the bus.
func NewRecorder(b *bus.Bus, limit int) *Recorder {
	rec := &Recorder{trace: NewTrace(limit)}
	b.Tap(func(m bus.Message) {
		rec.trace.Append(Record{Time: m.Time, Frame: m.Frame, Origin: m.Origin})
	})
	return rec
}

// Trace returns the recorder's trace.
func (r *Recorder) Trace() *Trace { return r.trace }

// WriteLog serialises a trace in the text log format, one record per line:
//
//	(<seconds>.<micros>) <iface> <ID>#<hexdata>        data frame
//	(<seconds>.<micros>) <iface> <ID>#R<dlc>           remote frame
//
// the same shape candump -l produces, so existing tooling habits transfer.
func WriteLog(w io.Writer, t *Trace, iface string) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, r := range t.records {
		secs := r.Time / time.Second
		micros := (r.Time % time.Second) / time.Microsecond
		line = fmt.Appendf(line[:0], "(%d.%06d) %s ", secs, micros, iface)
		line = append(can.AppendFrame(line, r.Frame), '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseLog reads a text log produced by WriteLog (or hand-written in the
// same format) back into a trace.
func ParseLog(r io.Reader) (*Trace, error) {
	t := NewTrace(0)
	err := scanLines(r, func(line string) error {
		rec, err := parseLogLine(line)
		if err == nil {
			t.Append(rec)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// ReadFrames reads a seed corpus, one frame per line: either the bare
// can.ParseFrame text form ("215#205F01", as canfuzz -corpus-out and the
// minimizer write it) or a WriteLog line ("(0.001000) can0 215#205F01",
// as candump and -minimize-out write it). Both forms may share a file.
func ReadFrames(r io.Reader) ([]can.Frame, error) {
	var out []can.Frame
	err := scanLines(r, func(line string) error {
		if !strings.ContainsAny(line, " \t") {
			f, err := can.ParseFrame(line)
			out = append(out, f)
			return err
		}
		rec, err := parseLogLine(line)
		out = append(out, rec.Frame)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// scanLines calls fn on every line of r, trimmed, skipping blank lines and
// '#' comments; an error names the line it came from.
func scanLines(r io.Reader, fn func(line string) error) error {
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := fn(line); err != nil {
			return fmt.Errorf("capture: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("capture: %w", err)
	}
	return nil
}

func parseLogLine(line string) (Record, error) {
	var rec Record
	fields := strings.Fields(line)
	if len(fields) != 3 {
		return rec, fmt.Errorf("want 3 fields, got %d", len(fields))
	}
	ts := strings.Trim(fields[0], "()")
	tsParts := strings.SplitN(ts, ".", 2)
	if len(tsParts) != 2 || len(tsParts[1]) != 6 {
		return rec, fmt.Errorf("bad timestamp %q", fields[0])
	}
	secs, err := strconv.ParseInt(tsParts[0], 10, 64)
	if err != nil {
		return rec, fmt.Errorf("bad seconds: %w", err)
	}
	micros, err := strconv.ParseInt(tsParts[1], 10, 64)
	if err != nil {
		return rec, fmt.Errorf("bad microseconds: %w", err)
	}
	rec.Time = time.Duration(secs)*time.Second + time.Duration(micros)*time.Microsecond
	rec.Origin = fields[1]
	rec.Frame, err = can.ParseFrame(fields[2])
	return rec, err
}

// Replay schedules every record of a trace for transmission on the port,
// preserving the original inter-frame timing relative to the scheduler's
// current instant. It returns the virtual duration of the replay.
func Replay(sched *clock.Scheduler, port *bus.Port, t *Trace) time.Duration {
	if t.Len() == 0 {
		return 0
	}
	base := t.records[0].Time
	var last time.Duration
	for _, r := range t.records {
		frame := r.Frame
		offset := r.Time - base
		sched.After(offset, func() {
			// Replay is best-effort, like retransmitting onto a live bus.
			_ = port.Send(frame)
		})
		last = offset
	}
	return last
}
