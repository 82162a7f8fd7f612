package repro

// Native fuzz target for the world-reuse contract: for arbitrary seed
// pairs and fuzz-target identifiers, resetting a dirtied world and
// running a campaign must produce a report byte-identical to building a
// fresh world and running the same campaign. This is the property the
// fleet's pooled fast path rests on; the deterministic goldens pin two
// known schedules, the fuzzer hunts for state that survives Reset on
// schedules nobody thought to pin.

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/can"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/target"
)

func FuzzWorldReset(f *testing.F) {
	f.Add(int64(5), int64(6), uint8(0x15))
	f.Add(int64(0), int64(0), uint8(0))
	f.Add(int64(-1), int64(1<<40), uint8(0xFF))
	f.Fuzz(func(t *testing.T, seedA, seedB int64, idLow uint8) {
		id := 0x200 | can.ID(idLow)
		mk := func(seed int64) *fleet.World {
			b, err := target.Build(unlockSpec, core.Config{
				Seed:      seed,
				TargetIDs: []can.ID{id},
				Interval:  time.Millisecond,
			}, target.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return b.World
		}
		// Short virtual horizon keeps each exec cheap; whether the trial
		// ends in a finding or the deadline, the report must match.
		reportJSON := func(w *fleet.World) []byte {
			w.Campaign.RunUntilFinding(30 * time.Second)
			var buf bytes.Buffer
			if err := w.Campaign.BuildReport().WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}

		reused := mk(seedA)
		reportJSON(reused) // dirty the world under seedA
		if err := reused.Reset(fleet.TrialSpec{Seed: seedB}); err != nil {
			t.Fatal(err)
		}
		got := reportJSON(reused)

		want := reportJSON(mk(seedB))
		if !bytes.Equal(got, want) {
			t.Errorf("seeds (%d -> %d) id %#x: reset-then-run report differs from fresh-build-then-run\nfresh: %s\nreset: %s",
				seedA, seedB, id, want, got)
		}
	})
}
