package guided

import (
	"bufio"
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"strings"

	"repro/internal/can"
	"repro/internal/core"
)

// maxCorpus bounds the corpus; when full, the lowest-energy entry is
// evicted (first such entry on ties, so eviction is deterministic).
const maxCorpus = 512

// entry is one corpus frame with its accumulated energy: 1 at admission
// plus one per novelty credit earned since. Energy weights parent
// selection, so frames that keep provoking new behaviour are mutated more.
type entry struct {
	frame  can.Frame
	energy uint64
}

// corpus is the evolving seed pool. Entries keep insertion order — the
// serialized form and the weighted pick both walk it in order, which is
// what makes fleet-merged corpora independent of worker count.
type corpus struct {
	entries []entry
	index   map[string]int // serialized frame -> entries index
}

func newCorpus() *corpus {
	return &corpus{index: make(map[string]int)}
}

func (c *corpus) size() int { return len(c.entries) }

// reset empties the corpus in place, retaining entry and index capacity.
func (c *corpus) reset() {
	c.entries = c.entries[:0]
	clear(c.index)
}

// add admits a frame with the given energy credit, or tops up an existing
// entry's energy. Reports whether the frame was newly admitted.
func (c *corpus) add(f can.Frame, energy uint64) bool {
	if energy == 0 {
		energy = 1
	}
	key := core.FormatCorpusFrame(f)
	if i, ok := c.index[key]; ok {
		c.entries[i].energy += energy
		return false
	}
	if len(c.entries) >= maxCorpus {
		c.evict()
	}
	c.index[key] = len(c.entries)
	c.entries = append(c.entries, entry{frame: f, energy: energy})
	return true
}

// evict removes the first lowest-energy entry.
func (c *corpus) evict() {
	lo := 0
	for i, e := range c.entries {
		if e.energy < c.entries[lo].energy {
			lo = i
		}
	}
	delete(c.index, core.FormatCorpusFrame(c.entries[lo].frame))
	c.entries = append(c.entries[:lo], c.entries[lo+1:]...)
	for i := lo; i < len(c.entries); i++ {
		c.index[core.FormatCorpusFrame(c.entries[i].frame)] = i
	}
}

// pick returns an energy-weighted random entry. Caller guarantees the
// corpus is non-empty.
func (c *corpus) pick(rng *rand.Rand) can.Frame {
	var total uint64
	for _, e := range c.entries {
		total += e.energy
	}
	x := rng.Uint64N(total)
	for _, e := range c.entries {
		if x < e.energy {
			return e.frame
		}
		x -= e.energy
	}
	return c.entries[len(c.entries)-1].frame
}

// energies appends every entry's energy to dst (insertion order) and
// returns the extended slice. Callers pass a reused buffer so periodic
// introspection snapshots do not allocate once the buffer has grown.
func (c *corpus) energies(dst []uint64) []uint64 {
	for _, e := range c.entries {
		dst = append(dst, e.energy)
	}
	return dst
}

// frames returns the corpus in serialized "ID#HEXDATA" form, insertion
// order.
func (c *corpus) frames() []string {
	out := make([]string, len(c.entries))
	for i, e := range c.entries {
		out[i] = core.FormatCorpusFrame(e.frame)
	}
	return out
}

// WriteCorpus writes corpus lines (one "ID#HEXDATA" frame per line) — the
// same format as ConfigJSON.Corpus entries, so a written corpus feeds back
// into -corpus-in or a mutate-mode config unchanged.
func WriteCorpus(w io.Writer, lines []string) error {
	bw := bufio.NewWriter(w)
	for _, l := range lines {
		if _, err := fmt.Fprintln(bw, l); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCorpus parses a corpus file written by WriteCorpus; blank lines and
// '#'-prefixed comment lines are skipped.
func ReadCorpus(r io.Reader) ([]can.Frame, error) {
	var out []can.Frame
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f, err := core.ParseCorpusFrame(line)
		if err != nil {
			return nil, fmt.Errorf("guided: corpus line %d: %w", lineNo, err)
		}
		out = append(out, f)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("guided: %w", err)
	}
	return out, nil
}

// MergeCorpora merges per-trial corpora in trial order, deduplicating by
// serialized frame. Given the same per-trial slices the result is
// identical regardless of how many workers produced them — the fleet
// determinism guarantee extended to corpora.
func MergeCorpora(perTrial [][]string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, lines := range perTrial {
		for _, l := range lines {
			if !seen[l] {
				seen[l] = true
				out = append(out, l)
			}
		}
	}
	return out
}

// SortedCopy returns a lexicographically sorted copy of lines — handy for
// comparing corpora from differently-ordered sources in tests.
func SortedCopy(lines []string) []string {
	out := make([]string, len(lines))
	copy(out, lines)
	sort.Strings(out)
	return out
}
