package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// percentile with fewer samples beyond it is a guess, not a measurement.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of samples
// and the number of samples strictly beyond its rank. It refuses the
// percentile when fewer than minBeyond samples lie beyond it.
func percentile(samples []float64, q float64) (float64, int, error) {
	n := len(samples)
	if n == 0 {
		return 0, 0, errors.New("percentile of no samples")
	}
	if q <= 0 || q >= 1 {
		return 0, 0, fmt.Errorf("percentile %v outside (0,1)", q)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	beyond := n - rank
	if beyond < minBeyond {
		return 0, beyond, fmt.Errorf("p%g of %d samples has %d beyond it, need %d",
			q*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], beyond, nil
}

// median returns the middle of samples (mean of the two middle values for
// an even count); 0 for no samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of samples; 0 for no samples.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// validName reports whether s is a legal metric name: 1 to 64 letters,
// digits, '_', '.' and '-', starting with a letter or a digit.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case i > 0 && (r == '_' || r == '.' || r == '-'):
		default:
			return false
		}
	}
	return true
}

// peakRSSMB reads the process's peak resident set size (VmHWM) from
// /proc/self/status, in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseVmHWM(f)
}

// parseVmHWM extracts the "VmHWM: <n> kB" line of a /proc status file.
func parseVmHWM(r io.Reader) (float64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", sc.Text())
		}
		kb, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		if kb == 0 {
			return 0, errors.New("VmHWM is zero")
		}
		return float64(kb) / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in status")
}
