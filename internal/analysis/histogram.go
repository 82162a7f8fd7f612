package analysis

import (
	"math"

	"repro/internal/can"
)

// ByteHistogram counts byte values over a frame stream — the distribution
// behind the Fig 4/5 means. Where the paper eyeballs "an even spread of
// byte values", the histogram gives the quantitative version: a chi-square
// uniformity statistic.
type ByteHistogram struct {
	counts [256]uint64
	total  uint64
}

// Add accumulates every payload byte of one frame.
func (h *ByteHistogram) Add(f can.Frame) {
	n := int(f.Len)
	if n > can.MaxDataLen {
		n = can.MaxDataLen
	}
	for _, b := range f.Data[:n] {
		h.counts[b]++
		h.total++
	}
}

// ChiSquare returns the chi-square statistic against the uniform
// distribution over 256 values (255 degrees of freedom). For genuinely
// uniform data the expected value is ~255; structured vehicle traffic
// scores orders of magnitude higher.
func (h *ByteHistogram) ChiSquare() float64 {
	if h.total == 0 {
		return 0
	}
	expected := float64(h.total) / 256
	var chi float64
	for _, c := range h.counts {
		d := float64(c) - expected
		chi += d * d / expected
	}
	return chi
}

// UniformP99 reports whether the stream passes a uniformity check at
// roughly the 99th percentile: for 255 degrees of freedom the chi-square
// critical value is ~310.5. True means "consistent with uniform" — the
// pass criterion for the fuzzer's Fig 5 integrity check.
func (h *ByteHistogram) UniformP99() bool {
	const critical255df = 310.5
	return h.total > 0 && h.ChiSquare() < critical255df
}

// Entropy returns the Shannon entropy of the byte distribution in bits
// (8.0 for perfectly uniform; real vehicle traffic is far lower).
func (h *ByteHistogram) Entropy() float64 {
	if h.total == 0 {
		return 0
	}
	var e float64
	for _, c := range h.counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(h.total)
		e -= p * math.Log2(p)
	}
	return e
}
