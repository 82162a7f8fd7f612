package core

import (
	"repro/internal/analysis"
	"repro/internal/bus"
	"repro/internal/can"
)

// Monitor is the fuzzer's CAN bus traffic monitor: it keeps integrity
// statistics over transmitted frames (the check behind Fig 5), mirrors
// observed traffic statistics (Fig 4 when attached to a vehicle), and
// retains a bounded window of recently sent frames so that a finding can
// record "the conditions that caused it".
type Monitor struct {
	recent []can.Frame
	monitorRun
}

// monitorRun is the monitor's per-trial state. Reset assigns it whole,
// so a cold build (NewMonitor calls Reset) and a warm reset start
// identically.
type monitorRun struct {
	sentMeans     analysis.ByteMeans
	observedMeans analysis.ByteMeans

	// Per-identifier counters are dense arrays, not maps: the 11-bit ID
	// space is only 2048 entries (16 KiB per direction), and NoteSent runs
	// once per transmitted frame — the map hash + growth was the last
	// allocation source on the steady-state TX path. Distinct-ID tallies
	// are maintained incrementally for the same reason.
	sentByID         [can.MaxID + 1]uint64
	observedByID     [can.MaxID + 1]uint64
	distinctSent     int
	distinctObserved int

	// next is the window write cursor; filled reports a wrap.
	next   int
	filled bool
}

// NewMonitor creates a monitor retaining the last window sent frames.
func NewMonitor(window int) *Monitor {
	if window <= 0 {
		window = 32
	}
	m := &Monitor{recent: make([]can.Frame, window)}
	m.Reset()
	return m
}

// Reset clears every accumulated statistic and rewinds the recent-frame
// window in place, allocating nothing; NewMonitor runs the same code.
// Stale frames past the write cursor are unreachable through Recent.
func (m *Monitor) Reset() {
	m.monitorRun = monitorRun{}
}

// NoteSent records a transmitted fuzz frame.
func (m *Monitor) NoteSent(f can.Frame) {
	m.sentMeans.Add(f)
	if m.sentByID[f.ID] == 0 {
		m.distinctSent++
	}
	m.sentByID[f.ID]++
	m.recent[m.next] = f
	m.next++
	if m.next == len(m.recent) {
		m.next = 0
		m.filled = true
	}
}

// NoteObserved records a frame seen on the bus from other nodes.
func (m *Monitor) NoteObserved(msg bus.Message) {
	m.observedMeans.Add(msg.Frame)
	if m.observedByID[msg.Frame.ID] == 0 {
		m.distinctObserved++
	}
	m.observedByID[msg.Frame.ID]++
}

// SentMeans returns the integrity statistics over transmitted frames.
func (m *Monitor) SentMeans() *analysis.ByteMeans { return &m.sentMeans }

// ObservedMeans returns the statistics over observed bus traffic.
func (m *Monitor) ObservedMeans() *analysis.ByteMeans { return &m.observedMeans }

// SentCount returns the number of frames sent with a given identifier.
func (m *Monitor) SentCount(id can.ID) uint64 { return m.sentByID[id] }

// DistinctIDsSent returns how many distinct identifiers have been fuzzed —
// the identifier-coverage numerator. With the full 2048-ID space at 1 ms
// pacing, complete ID coverage arrives within a few virtual seconds even
// though value coverage never will (§V combinatorics).
func (m *Monitor) DistinctIDsSent() int { return m.distinctSent }

// ObservedIDs returns the number of distinct identifiers observed.
func (m *Monitor) ObservedIDs() int { return m.distinctObserved }

// Recent returns the retained window of sent frames, oldest first.
func (m *Monitor) Recent() []can.Frame {
	if !m.filled {
		out := make([]can.Frame, m.next)
		copy(out, m.recent[:m.next])
		return out
	}
	out := make([]can.Frame, 0, len(m.recent))
	out = append(out, m.recent[m.next:]...)
	out = append(out, m.recent[:m.next]...)
	return out
}
