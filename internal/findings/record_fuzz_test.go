package findings

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzReadRecord decodes arbitrary bytes as a record file: each input
// must either decode to a record that names its oracle and target and
// re-serialises byte-stably, or fail with ErrCorruptRecord — never panic.
func FuzzReadRecord(f *testing.F) {
	canonical, err := unlockRecord().marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(canonical)
	f.Add([]byte(`{"oracle":"o","target":"bench","trigger":["215#20"],"config":{"seed":3}}`))
	f.Add([]byte(`{"oracle": "unlo`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"oracle":"o","target":"t"} trailing`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeRecord(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("decode %q: unnamed error %v", data, err)
			}
			return
		}
		if rec.Oracle == "" || rec.Target == "" {
			t.Fatalf("decode %q: record without oracle or target: %+v", data, rec)
		}
		once, err := rec.marshal()
		if err != nil {
			t.Fatal(err)
		}
		again, err := decodeRecord(once)
		if err != nil {
			t.Fatalf("canonical bytes of %q do not decode: %v", data, err)
		}
		twice, err := again.marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("record does not re-serialise stably:\n%s\n%s", once, twice)
		}
	})
}
