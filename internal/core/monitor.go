package core

import (
	"repro/internal/analysis"
	"repro/internal/can"
)

// Monitor is the fuzzer's CAN bus traffic monitor: it keeps integrity
// statistics over transmitted frames (the check behind Fig 5) and retains
// a bounded window of recently sent frames so that a finding can
// record "the conditions that caused it".
type Monitor struct {
	recent []can.Frame
	monitorRun
}

// monitorRun is the monitor's per-trial state. Reset assigns it whole,
// so a cold build (NewMonitor calls Reset) and a warm reset start
// identically.
type monitorRun struct {
	sentMeans analysis.ByteMeans

	// Identifiers sent are a 2048-bit set, not a map: the 11-bit ID space
	// fits in 256 B, and NoteSent runs once per transmitted frame — a
	// map's hash and growth would allocate on the steady-state TX path.
	// The distinct-ID tally is maintained incrementally for the same
	// reason.
	sentIDs      idSet
	distinctSent int

	// next is the window write cursor; filled reports a wrap.
	next   int
	filled bool
}

// idSet is a set over the 11-bit identifier space, one bit per ID.
type idSet [(can.MaxID + 1) / 64]uint64

// add inserts id and reports whether it was absent.
func (s *idSet) add(id can.ID) bool {
	w, bit := id/64, uint64(1)<<(id%64)
	if s[w]&bit != 0 {
		return false
	}
	s[w] |= bit
	return true
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
	if m.sentIDs.add(f.ID) {
		m.distinctSent++
	}
	m.recent[m.next] = f
	m.next++
	if m.next == len(m.recent) {
		m.next = 0
		m.filled = true
	}
}

// SentMeans returns the integrity statistics over transmitted frames.
func (m *Monitor) SentMeans() *analysis.ByteMeans { return &m.sentMeans }

// DistinctIDsSent returns how many distinct identifiers have been fuzzed —
// the identifier-coverage numerator. With the full 2048-ID space at 1 ms
// pacing, complete ID coverage arrives within a few virtual seconds even
// though value coverage never will (§V combinatorics).
func (m *Monitor) DistinctIDsSent() int { return m.distinctSent }

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
