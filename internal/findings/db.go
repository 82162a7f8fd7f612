package findings

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/durable"
)

// DB is a findings database: a directory holding one `<key>.json` file per
// deduplicated finding. It is safe for concurrent use from one process
// (campsrv merges findings from per-campaign watcher goroutines);
// cross-process writers are serialized per record by the atomic
// temp-file + rename protocol, which never exposes a half-written record.
type DB struct {
	dir string

	mu sync.Mutex
}

// Open opens (creating if needed) the findings database at dir.
func Open(dir string) (*DB, error) {
	if dir == "" {
		return nil, fmt.Errorf("findings: empty db directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("findings: %w", err)
	}
	return &DB{dir: dir}, nil
}

// Dir reports the database directory.
func (db *DB) Dir() string { return db.dir }

// Merge folds one record into the database: a new key writes a fresh
// record, an existing key merges provenance and keeps the canonical replay
// context (see merge). It reports whether the key was new. Records that
// cannot identify themselves (no oracle or target) are rejected — they
// could never be replayed.
func (db *DB) Merge(rec Record) (bool, error) {
	if rec.Oracle == "" || rec.Target == "" {
		return false, fmt.Errorf("findings: record missing oracle or target")
	}
	db.mu.Lock()
	defer db.mu.Unlock()

	key := rec.Key()
	path := filepath.Join(db.dir, key+".json")
	existing, err := readRecord(path)
	fresh := false
	switch {
	case err == nil:
		rec = merge(existing, rec)
	case os.IsNotExist(err):
		fresh = true
		// Normalize provenance lists so a solo write and a merge produce
		// identical bytes for identical inputs.
		rec.Sources = sortedUnion(rec.Sources, nil)
		rec.Campaigns = sortedUnion(rec.Campaigns, nil)
	default:
		return false, fmt.Errorf("findings: read %s: %w", path, err)
	}

	data, err := rec.marshal()
	if err != nil {
		return false, fmt.Errorf("findings: encode %s: %w", key, err)
	}
	if !fresh {
		old, rerr := existing.marshal()
		if rerr == nil && string(old) == string(data) {
			return false, nil // no-op merge: leave the file untouched
		}
	}
	// Durable replace: a reader never observes a partial record, and a
	// crash leaves at worst an ignorable `.tmp` file.
	if err := durable.WriteFile(path, data, 0o600); err != nil {
		return false, fmt.Errorf("findings: %w", err)
	}
	return fresh, nil
}

// MergeAll merges a batch of records, reporting how many keys were new.
func (db *DB) MergeAll(recs []Record) (int, error) {
	fresh := 0
	for _, rec := range recs {
		isNew, err := db.Merge(rec)
		if err != nil {
			return fresh, err
		}
		if isNew {
			fresh++
		}
	}
	return fresh, nil
}

// Load reads every record in the database, sorted by key. Only `*.json`
// entries are considered: a torn temp file left by a crash mid-write (the
// `.tmp` suffix) is ignored, which is what makes the write protocol
// crash-safe — either the rename happened and the record is whole, or it
// did not and the record does not exist.
func (db *DB) Load() ([]Record, error) {
	db.mu.Lock()
	defer db.mu.Unlock()

	entries, err := os.ReadDir(db.dir)
	if err != nil {
		return nil, fmt.Errorf("findings: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	recs := make([]Record, 0, len(names))
	for _, name := range names {
		rec, err := readRecord(filepath.Join(db.dir, name))
		if err != nil {
			return nil, fmt.Errorf("findings: %s: %w", name, err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// ErrCorruptRecord marks a record file that is not one JSON record naming
// its oracle and target. Merge never writes such a file, so finding one
// means the database was damaged or edited by hand.
var ErrCorruptRecord = errors.New("findings: corrupt record")

// readRecord loads and decodes one record file.
func readRecord(path string) (Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Record{}, err
	}
	return decodeRecord(data)
}

// decodeRecord decodes the contents of one record file.
func decodeRecord(data []byte) (Record, error) {
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrCorruptRecord, err)
	}
	if rec.Oracle == "" || rec.Target == "" {
		return Record{}, fmt.Errorf("%w: missing oracle or target", ErrCorruptRecord)
	}
	return rec, nil
}
