package guided

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/can"
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
	index   map[can.Frame]int // indexKey(frame) -> entries index
	total   uint64            // sum of entry energies, kept current by add and evict
}

func newCorpus() *corpus {
	return &corpus{index: make(map[can.Frame]int)}
}

// indexKey is the frame with the payload bytes past Len cleared, so two
// frames that print the same text share one entry.
func indexKey(f can.Frame) can.Frame {
	clear(f.Data[min(int(f.Len), can.MaxDataLen):])
	return f
}

func (c *corpus) size() int { return len(c.entries) }

// reset empties the corpus in place, retaining entry and index capacity.
func (c *corpus) reset() {
	c.entries = c.entries[:0]
	clear(c.index)
	c.total = 0
}

// add admits a frame with the given energy credit, or tops up an existing
// entry's energy. Reports whether the frame was newly admitted.
func (c *corpus) add(f can.Frame, energy uint64) bool {
	if energy == 0 {
		energy = 1
	}
	key := indexKey(f)
	if i, ok := c.index[key]; ok {
		c.entries[i].energy += energy
		c.total += energy
		return false
	}
	if len(c.entries) >= maxCorpus {
		c.evict()
	}
	c.total += energy
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
	c.total -= c.entries[lo].energy
	delete(c.index, indexKey(c.entries[lo].frame))
	c.entries = append(c.entries[:lo], c.entries[lo+1:]...)
	for i := lo; i < len(c.entries); i++ {
		c.index[indexKey(c.entries[i].frame)] = i
	}
}

// pick returns the index of the entry whose span of the energy line
// [0, total) holds x: for x uniform over that line, an energy-weighted
// random entry. Caller guarantees x < c.total.
func (c *corpus) pick(x uint64) int {
	for i := range c.entries {
		e := c.entries[i].energy
		if x < e {
			return i
		}
		x -= e
	}
	return len(c.entries) - 1
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

// frames returns the corpus in the can.AppendFrame "ID#HEXDATA" form,
// insertion order.
func (c *corpus) frames() []string {
	out := make([]string, len(c.entries))
	var buf []byte
	for i, e := range c.entries {
		buf = can.AppendFrame(buf[:0], e.frame)
		out[i] = string(buf)
	}
	return out
}

// WriteCorpus writes corpus lines (one "ID#HEXDATA" frame per line) — the
// same format as ConfigJSON.Corpus entries, so a written corpus feeds back
// into canfuzz -corpus (capture.ReadFrames) or a config corpus unchanged.
func WriteCorpus(w io.Writer, lines []string) error {
	bw := bufio.NewWriter(w)
	for _, l := range lines {
		if _, err := fmt.Fprintln(bw, l); err != nil {
			return err
		}
	}
	return bw.Flush()
}
