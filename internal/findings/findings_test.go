package findings

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// unlockRecord is the canonical bench finding: the one-frame unlock
// trigger (CmdUnlock 0x20 on 0x215) under the byte-only parser.
func unlockRecord() Record {
	return Record{
		Oracle:         "unlock-ack",
		Detail:         "matched frame 0533 2 AC 01",
		Target:         "bench",
		BCMCheck:       "byte",
		Trigger:        []string{"215#20"},
		Seed:           7,
		IntervalMicros: 1000,
		SettleMillis:   150,
		Mode:           "guided",
		Sources:        []string{"canfuzz"},
		Campaigns:      []string{"c-0001"},
	}
}

// dbBytes snapshots every record file (name + content) for byte-level
// comparison of two databases.
func dbBytes(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(e.Name())
		sb.WriteString("\n")
		sb.Write(data)
	}
	return sb.String()
}

func TestMergeDedupeIdempotent(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := db.Merge(unlockRecord())
	if err != nil || !fresh {
		t.Fatalf("first merge: fresh=%v err=%v", fresh, err)
	}
	before := dbBytes(t, dir)
	fresh, err = db.Merge(unlockRecord())
	if err != nil || fresh {
		t.Fatalf("second merge of identical record: fresh=%v err=%v", fresh, err)
	}
	if after := dbBytes(t, dir); after != before {
		t.Fatalf("idempotent merge changed DB bytes:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	recs, err := db.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("want 1 record after duplicate merge, got %d", len(recs))
	}
}

func TestMergeKeyIgnoresProvenanceAndSeed(t *testing.T) {
	a := unlockRecord()
	b := unlockRecord()
	b.Seed = 99
	b.Sources = []string{"campsrv"}
	b.Campaigns = []string{"c-0002"}
	if a.Key() != b.Key() {
		t.Fatalf("same identity, different provenance: keys differ (%s vs %s)", a.Key(), b.Key())
	}
	c := unlockRecord()
	c.Trigger = []string{"215#20", "215#21"}
	if a.Key() == c.Key() {
		t.Fatal("different trigger produced the same key")
	}
}

func TestLoadIgnoresTornTempFile(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Merge(unlockRecord()); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: a half-written temp file next to a whole
	// record. Load must skip it; a second Merge must still work.
	torn := filepath.Join(dir, "deadbeef.json.12345.tmp")
	if err := os.WriteFile(torn, []byte(`{"oracle": "unlo`), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := db.Load()
	if err != nil {
		t.Fatalf("Load with torn temp file: %v", err)
	}
	if len(recs) != 1 || recs[0].Oracle != "unlock-ack" {
		t.Fatalf("want the 1 whole record, got %+v", recs)
	}
}

func TestMergeOrderByteDeterminism(t *testing.T) {
	// Three observations of the same finding from different campaigns, plus
	// one distinct finding — merged in two different orders.
	a := unlockRecord()
	b := unlockRecord()
	b.Seed = 99
	b.Sources = []string{"campsrv"}
	b.Campaigns = []string{"c-0002"}
	b.ReplayLog = "repro.log"
	c := unlockRecord()
	c.Seed = 3
	c.Sources = []string{"canfuzz-fleet"}
	c.Campaigns = []string{"c-0003"}
	c.Mode = "random"
	d := unlockRecord()
	d.Trigger = []string{"215#2000000000000000"}

	mergeInto := func(recs []Record) string {
		dir := t.TempDir()
		db, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.MergeAll(recs); err != nil {
			t.Fatal(err)
		}
		return dbBytes(t, dir)
	}
	ord1 := mergeInto([]Record{a, b, c, d})
	ord2 := mergeInto([]Record{d, c, b, a})
	ord3 := mergeInto([]Record{c, a, d, b})
	if ord1 != ord2 || ord1 != ord3 {
		t.Fatalf("merge order changed DB bytes:\norder1:\n%s\norder2:\n%s\norder3:\n%s", ord1, ord2, ord3)
	}
	// The merged record must carry the union of provenance.
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.MergeAll([]Record{a, b, c}); err != nil {
		t.Fatal(err)
	}
	recs, err := db.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("want 1 merged record, got %d", len(recs))
	}
	got := recs[0]
	if want := []string{"c-0001", "c-0002", "c-0003"}; strings.Join(got.Campaigns, ",") != strings.Join(want, ",") {
		t.Fatalf("campaign union = %v, want %v", got.Campaigns, want)
	}
	if got.Seed != 3 {
		t.Fatalf("canonical context should be the smallest seed, got %d", got.Seed)
	}
	if got.ReplayLog != "repro.log" {
		t.Fatalf("replay log lost in merge: %q", got.ReplayLog)
	}
}

func TestMergeRejectsUnreplayableRecord(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Merge(Record{Detail: "no oracle"}); err == nil {
		t.Fatal("merged a record without oracle/target")
	}
}

func TestParseOverrides(t *testing.T) {
	o, err := ParseOverrides("check=length,recovery=true,bus=powertrain")
	if err != nil {
		t.Fatal(err)
	}
	if o.BCMCheck != "length" || o.Recovery == nil || !*o.Recovery || o.Bus != "powertrain" {
		t.Fatalf("parsed %+v", o)
	}
	if o.Label() != "check=length,recovery=true,bus=powertrain" {
		t.Fatalf("label %q", o.Label())
	}
	if _, err := ParseOverrides("check=bogus"); err == nil {
		t.Fatal("accepted unknown check mode")
	}
	if _, err := ParseOverrides("frobnicate=1"); err == nil {
		t.Fatal("accepted unknown key")
	}
	if zero, err := ParseOverrides(""); err != nil || zero != (Overrides{}) {
		t.Fatalf("empty overrides: %+v err=%v", zero, err)
	}
}
