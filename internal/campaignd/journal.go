package campaignd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/fleet"
	"repro/internal/observatory"
)

// ErrCorruptJournal names a journal that cannot be resumed from: a
// newline-terminated line that does not parse. Only the bytes after the
// last '\n' may be damaged by a crash; damage anywhere before is never a
// torn write.
var ErrCorruptJournal = errors.New("campaignd: corrupt journal")

// Journal is a campaign's recovered state: what a crashed server had
// durably accomplished. The event log is the campaign's only durable
// store, and trial_result lines carry complete serialised results, so spec
// + results is everything a successor needs — in-flight leases at crash
// time are deliberately absent (they are re-dispatched from scratch, which
// is always safe because results are pure).
type Journal struct {
	// Spec is the campaign_start spec (nil when the log has none).
	Spec *CampaignSpec
	// SpecRaw is the spec's exact journal bytes, compared against the
	// resuming server's canonical spec bytes by Compatible.
	SpecRaw []byte
	// Results holds the accepted trial results keyed by trial index.
	// A trial journalled twice keeps the first occurrence, matching the
	// lease book's first-submission-wins acceptance.
	Results map[int]fleet.TrialResult
	// Lines counts the non-blank journal lines read.
	Lines int
	// TruncatedTail reports bytes after the last '\n': an append the
	// writer died inside. They are not part of the journal.
	TruncatedTail bool
}

// LoadJournal replays an event log under the journal recovery rule: the
// journal is the prefix that ends at the last '\n', and every line in it
// must parse (ErrCorruptJournal otherwise). The bytes after it are a torn
// tail and are ignored even when they happen to be complete JSON — a
// resuming writer truncates them (OpenJournal), so counting their trial
// as done would lose its trial_result from disk for good.
func LoadJournal(r io.Reader) (*Journal, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("campaignd: journal read: %w", err)
	}
	j, _, err := parseJournal(data)
	return j, err
}

// OpenJournal opens an existing journal to append to it, applying the
// LoadJournal rule to the file it reads once: the newline-terminated
// prefix is parsed and kept, the torn tail after it is truncated away, and
// the file is left positioned at its end. A missing file is an error
// wrapping os.ErrNotExist.
func OpenJournal(path string) (*os.File, *Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, nil, err
	}
	j, err := recoverJournal(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, j, nil
}

// recoverJournal reads f to its end, parses it and cuts its torn tail.
func recoverJournal(f *os.File) (*Journal, error) {
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("campaignd: journal read: %w", err)
	}
	j, keep, err := parseJournal(data)
	if err != nil || !j.TruncatedTail {
		return j, err
	}
	if err := f.Truncate(int64(keep)); err != nil {
		return nil, fmt.Errorf("campaignd: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(int64(keep), io.SeekStart); err != nil {
		return nil, err
	}
	return j, nil
}

// parseJournal parses the newline-terminated prefix of data and returns
// its length.
func parseJournal(data []byte) (*Journal, int, error) {
	keep := bytes.LastIndexByte(data, '\n') + 1
	j := &Journal{Results: map[int]fleet.TrialResult{}, TruncatedTail: keep < len(data)}
	rest := data[:keep]
	for lineNo := 1; len(rest) > 0; lineNo++ {
		nl := bytes.IndexByte(rest, '\n')
		line := bytes.TrimSpace(rest[:nl])
		rest = rest[nl+1:]
		if len(line) == 0 {
			continue
		}
		ev, err := observatory.ParseLine(line)
		if err != nil {
			return nil, 0, fmt.Errorf("%w: line %d: %v", ErrCorruptJournal, lineNo, err)
		}
		j.Lines++
		switch ev.Type {
		case observatory.EventCampaignStart:
			if j.Spec == nil {
				var spec CampaignSpec
				if err := json.Unmarshal(ev.Raw, &spec); err != nil {
					return nil, 0, fmt.Errorf("%w: line %d: spec: %v", ErrCorruptJournal, lineNo, err)
				}
				j.Spec = &spec
				j.SpecRaw = append([]byte(nil), ev.Raw...)
			}
		case observatory.EventTrialResult:
			var res fleet.TrialResult
			if err := json.Unmarshal(ev.Raw, &res); err != nil {
				return nil, 0, fmt.Errorf("%w: line %d: trial_result: %v", ErrCorruptJournal, lineNo, err)
			}
			if _, dup := j.Results[res.Trial]; !dup {
				j.Results[res.Trial] = res
			}
		}
	}
	return j, keep, nil
}

// Compatible reports whether the journal was written by a campaign with
// exactly this spec — byte equality of the canonical spec document, the
// strictest check and the right one: any drift (different seed, trial
// count, generator config) would silently break the determinism guarantee
// the resume is supposed to preserve.
func (j *Journal) Compatible(spec CampaignSpec) error {
	if j.Spec == nil {
		return fmt.Errorf("campaignd: journal has no campaign_start line")
	}
	canonical, err := spec.Canonical()
	if err != nil {
		return err
	}
	if !bytes.Equal(j.SpecRaw, canonical) {
		return fmt.Errorf("campaignd: journal spec mismatch:\n journal: %s\n resume:  %s",
			j.SpecRaw, canonical)
	}
	return nil
}
