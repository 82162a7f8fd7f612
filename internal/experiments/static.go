// Package experiments contains one harness per table and figure of the
// paper's evaluation. Each harness is deterministic given its seed and
// returns typed rows; cmd/benchreport renders them in the paper's layout.
// EXPERIMENTS.md records paper-vs-measured for each, quoting that report.
package experiments

import (
	"time"

	"repro/internal/analysis"
	"repro/internal/can"
)

// Fig1Row is one bar of Figure 1 (survey of testing methods used in the
// automotive industry, derived from Altinger, Wotawa and Schurius 2014).
type Fig1Row struct {
	// Method is the testing method name.
	Method string
	// Share is the reported usage share, in percent of respondents.
	Share float64
}

// Figure1 returns the survey data behind Fig 1. The values are the usage
// shares the paper's bar chart shows; the point of the figure is the
// shape: functional/unit testing dominates while fuzzing sits near the
// bottom ("its use in general testing of automotive systems is low").
func Figure1() []Fig1Row {
	return []Fig1Row{
		{Method: "Functional testing", Share: 87},
		{Method: "Unit testing", Share: 82},
		{Method: "Integration testing", Share: 71},
		{Method: "Regression testing", Share: 59},
		{Method: "Requirements-based testing", Share: 55},
		{Method: "Back-to-back testing", Share: 38},
		{Method: "Fault injection", Share: 26},
		{Method: "Robustness testing", Share: 22},
		{Method: "Fuzz testing", Share: 8},
		{Method: "Penetration testing", Share: 6},
	}
}

// Table1Row is one row of Table I (automotive CAN fuzzing tools).
type Table1Row struct {
	// Tool is the fuzzer name.
	Tool string
	// License is the licensing model.
	License string
	// Approach is the configuration approach.
	Approach string
}

// Table1 returns the catalogue of Table I verbatim.
func Table1() []Table1Row {
	return []Table1Row{
		{Tool: "beStorm", License: "Commercial", Approach: "Protocol based"},
		{Tool: "Defensics", License: "Commercial", Approach: "Protocol based"},
		{Tool: "CANoe/booFuzz", License: "Mixed", Approach: "Design based"},
		{Tool: "Peach", License: "Mixed", Approach: "Protocol based"},
		{Tool: "Custom software", License: "As required", Approach: "As required"},
	}
}

// Table3Row is one row of Table III (fuzzable elements of a CAN packet).
type Table3Row struct {
	// Item is the fuzzed element.
	Item string
	// Range is the value range in the paper's set notation.
	Range string
	// Description is the paper's description column.
	Description string
}

// Table3 returns the fuzzing-element rows of Table III.
func Table3() []Table3Row {
	return []Table3Row{
		{Item: "CAN Id", Range: "{0,1,2,...,2047}", Description: "All standard message ids"},
		{Item: "Payload length", Range: "{0,1,2,...,8}", Description: "Vary message length"},
		{Item: "Payload byte", Range: "{0,1,2,...,255}", Description: "Vary payload bytes"},
		{Item: "Rate", Range: ">= 1ms", Description: "Vary transmission interval"},
	}
}

// SpaceCalc is one line of the §V combinatorial-explosion discussion.
type SpaceCalc struct {
	// Space is the parameter space.
	Space analysis.FuzzSpace
	// Combinations is the space size.
	Combinations uint64
	// AtOneMs is the exhaustion time at the fuzzer's 1 ms maximum rate.
	AtOneMs time.Duration
}

// Table3Combinatorics returns the §V worked examples: one payload byte is
// 2^19 combinations (~8.7 minutes at 1 ms), two bytes ~1.5 days, and the
// growth beyond that which makes blind fuzzing "impractical".
func Table3Combinatorics() []SpaceCalc {
	var out []SpaceCalc
	for _, bytes := range []int{0, 1, 2, 3} {
		s := analysis.FuzzSpace{IDs: can.NumIDs, PayloadBytes: bytes}
		out = append(out, SpaceCalc{
			Space:        s,
			Combinations: s.Combinations(),
			AtOneMs:      s.TimeToExhaust(time.Millisecond),
		})
	}
	return out
}
