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
	for _, r := range t.records {
		secs := r.Time / time.Second
		micros := (r.Time % time.Second) / time.Microsecond
		if r.Frame.Remote {
			if _, err := fmt.Fprintf(bw, "(%d.%06d) %s %03X#R%d\n",
				secs, micros, iface, uint16(r.Frame.ID), r.Frame.Len); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(bw, "(%d.%06d) %s %03X#%X\n",
			secs, micros, iface, uint16(r.Frame.ID),
			r.Frame.Data[:r.Frame.Len]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseLog reads a text log produced by WriteLog (or hand-written in the
// same format) back into a trace.
func ParseLog(r io.Reader) (*Trace, error) {
	t := NewTrace(0)
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rec, err := parseLogLine(line)
		if err != nil {
			return nil, fmt.Errorf("capture: line %d: %w", lineNo, err)
		}
		t.Append(rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	return t, nil
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

	idData := strings.SplitN(fields[2], "#", 2)
	if len(idData) != 2 {
		return rec, fmt.Errorf("missing '#' separator in %q", fields[2])
	}
	id64, err := strconv.ParseUint(idData[0], 16, 16)
	if err != nil || id64 > can.MaxID {
		return rec, fmt.Errorf("bad identifier %q", idData[0])
	}
	if strings.HasPrefix(idData[1], "R") {
		dlc, err := strconv.ParseUint(idData[1][1:], 10, 8)
		if err != nil || dlc > can.MaxDataLen {
			return rec, fmt.Errorf("bad remote dlc %q", idData[1])
		}
		f, err := can.NewRemote(can.ID(id64), uint8(dlc))
		if err != nil {
			return rec, err
		}
		rec.Frame = f
		return rec, nil
	}
	hexStr := idData[1]
	if len(hexStr)%2 != 0 || len(hexStr) > can.MaxDataLen*2 {
		return rec, fmt.Errorf("bad data %q", hexStr)
	}
	data := make([]byte, len(hexStr)/2)
	for i := range data {
		b, err := strconv.ParseUint(hexStr[i*2:i*2+2], 16, 8)
		if err != nil {
			return rec, fmt.Errorf("bad data byte: %w", err)
		}
		data[i] = byte(b)
	}
	f, err := can.New(can.ID(id64), data)
	if err != nil {
		return rec, err
	}
	rec.Frame = f
	return rec, nil
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
