package campaignd_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/campaignd"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/observatory"
)

// FuzzLoadJournal pins the journal recovery rule on arbitrary bytes:
// LoadJournal never panics, everything it accepts comes from the
// newline-terminated prefix (the bytes after the last '\n' never change
// the outcome), and OpenJournal reads the same journal from a file and
// leaves exactly that prefix on disk.
func FuzzLoadJournal(f *testing.F) {
	spec := testSpec(3)
	var journal bytes.Buffer
	coord, err := campaignd.New(campaignd.Config{Spec: spec, Sink: observatory.NewSink(&journal)})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res := fleet.TrialResult{Trial: i, Seed: faults.DeriveSeed(spec.BaseSeed, i), Status: fleet.StatusTimeout}
		if err := coord.Submit(i, 0, res); err != nil {
			f.Fatal(err)
		}
	}
	full := journal.Bytes()
	f.Add(full)
	f.Add(full[:len(full)-1])
	f.Add(full[:len(full)/2])
	f.Add(append(append([]byte(nil), full...), "{bad}\n"...))
	f.Add([]byte(""))
	f.Add([]byte("\n\n"))

	path := filepath.Join(f.TempDir(), "events.jsonl") // reused: one file per worker
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := campaignd.LoadJournal(bytes.NewReader(data))
		prefix := data[:bytes.LastIndexByte(data, '\n')+1]
		pj, perr := campaignd.LoadJournal(bytes.NewReader(prefix))
		if (err == nil) != (perr == nil) {
			t.Fatalf("torn tail changed the outcome: full err %v, prefix err %v", err, perr)
		}
		if err != nil {
			if !errors.Is(err, campaignd.ErrCorruptJournal) {
				t.Fatalf("unnamed error: %v", err)
			}
			return
		}
		if j.TruncatedTail != (len(prefix) < len(data)) || pj.TruncatedTail {
			t.Fatalf("TruncatedTail=%v (prefix %v) for %d of %d bytes kept",
				j.TruncatedTail, pj.TruncatedTail, len(prefix), len(data))
		}
		if j.Lines != pj.Lines || !bytes.Equal(j.SpecRaw, pj.SpecRaw) || !reflect.DeepEqual(j.Results, pj.Results) {
			t.Fatal("a result or line was accepted from outside the newline-terminated prefix")
		}

		// OpenJournal shares the parser, so only accepted journals need the
		// (slower) file round trip: same journal, and the prefix on disk.
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		file, oj, err := campaignd.OpenJournal(path)
		if err != nil {
			t.Fatalf("OpenJournal rejected what LoadJournal accepted: %v", err)
		}
		file.Close()
		if oj.Lines != j.Lines || !reflect.DeepEqual(oj.Results, j.Results) {
			t.Fatal("OpenJournal and LoadJournal recovered different journals")
		}
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, prefix) {
			t.Fatalf("OpenJournal left %d bytes, want the %d-byte prefix", len(onDisk), len(prefix))
		}
	})
}
