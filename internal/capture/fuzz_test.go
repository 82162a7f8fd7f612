package capture

// Fuzz target over the log parser — the tool-API surface an engineer feeds
// untrusted capture files into (§VII: fuzz the engineering tools too).

import (
	"strings"
	"testing"
)

func FuzzParseLog(f *testing.F) {
	f.Add("(1.000000) can0 215#205F010000012000")
	f.Add("(0.000001) vcan0 7FF#R8")
	f.Add("# comment\n\n(2.345678) body0 110#ABCD\n")
	f.Add("(((((")
	f.Add("(1.000000) can0 215#")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ParseLog(strings.NewReader(input))
		if err != nil {
			return
		}
		// Every accepted record must hold a valid frame and survive a
		// write/parse round trip.
		var sb strings.Builder
		if err := WriteLog(&sb, tr, "fz0"); err != nil {
			t.Fatalf("WriteLog on accepted trace: %v", err)
		}
		back, err := ParseLog(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("re-parse of own output failed: %v\noutput: %q", err, sb.String())
		}
		if back.Len() != tr.Len() {
			t.Fatalf("round trip changed record count: %d -> %d", tr.Len(), back.Len())
		}
		got := back.Records()
		for i, r := range tr.Records() {
			if err := r.Frame.Validate(); err != nil {
				t.Fatalf("accepted invalid frame: %v", err)
			}
			if got[i].Frame != r.Frame {
				t.Fatalf("record %d changed in round trip", i)
			}
		}
	})
}
