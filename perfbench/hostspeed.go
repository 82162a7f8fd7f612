package main

import (
	"hash/crc32"
	"time"
)

// nominalChunk is the time one calibration chunk takes on the reference
// host the benchmark was tuned on (2 shared vCPUs of an Intel Xeon VM at
// 2.0 GHz, in a quiet period).
const nominalChunk = 9 * time.Millisecond

// chunkSteps is the number of events one calibration chunk processes.
const chunkSteps = 60000

// hostSpeed measures how fast the shared host runs right now. On a host
// whose speed drifts by 10-30% over tens of seconds as neighbours come and
// go, raw times of identical work disagree between runs far more than any
// bound worth enforcing. A run therefore interleaves fixed calibration
// chunks with its measured batches and divides its time metrics (and
// multiplies its rates) by the host factor: median chunk time over
// nominalChunk.
//
// The chunk is a small discrete-event loop written here: a binary heap of
// timed events, dispatch through an interface, map updates and CRC-32
// over a short buffer — the kinds of work the simulator does, so the two
// slow down together, but sharing none of its code, so no change to the
// program under test can move the factor. It allocates nothing after
// construction, so the program's heap and GC pacing do not reach it.
type hostSpeed struct {
	q       []calEvent
	hs      []calHandler
	buf     []byte
	x       uint32
	samples []float64 // chunk durations, seconds
}

type calEvent struct {
	at   int64
	kind int
	id   uint32
}

type calHandler interface {
	handle(e calEvent, buf []byte) (dt int64, next int)
}

type calCRC struct{ n int }

func (h *calCRC) handle(e calEvent, buf []byte) (int64, int) {
	h.n++
	return int64(crc32.ChecksumIEEE(buf[:8+e.id%8])%97 + 1), (e.kind + 1) % 3
}

type calMap struct{ m map[uint32]int }

func (h *calMap) handle(e calEvent, _ []byte) (int64, int) {
	h.m[e.id%512]++
	return int64(e.id%31 + 1), (e.kind + 2) % 3
}

func newHostSpeed() *hostSpeed {
	m := make(map[uint32]int, 512)
	for i := uint32(0); i < 512; i++ {
		m[i] = 0
	}
	return &hostSpeed{
		q:   make([]calEvent, 0, 64),
		hs:  []calHandler{&calCRC{}, &calMap{m: m}, &calCRC{}},
		buf: make([]byte, 16),
	}
}

func (h *hostSpeed) push(e calEvent) {
	h.q = append(h.q, e)
	for i := len(h.q) - 1; i > 0; {
		p := (i - 1) / 2
		if h.q[p].at <= h.q[i].at {
			break
		}
		h.q[p], h.q[i] = h.q[i], h.q[p]
		i = p
	}
}

func (h *hostSpeed) pop() calEvent {
	top := h.q[0]
	n := len(h.q) - 1
	h.q[0] = h.q[n]
	h.q = h.q[:n]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < n && h.q[l].at < h.q[m].at {
			m = l
		}
		if r := l + 1; r < n && h.q[r].at < h.q[m].at {
			m = r
		}
		if m == i {
			break
		}
		h.q[m], h.q[i] = h.q[i], h.q[m]
		i = m
	}
	return top
}

// chunk runs one fixed calibration chunk and records its duration.
func (h *hostSpeed) chunk() {
	start := time.Now()
	h.q = h.q[:0]
	for i := 0; i < 64; i++ {
		h.push(calEvent{at: int64(i), kind: i % 3, id: uint32(i * 7919)})
	}
	for i := 0; i < chunkSteps; i++ {
		e := h.pop()
		h.x = h.x*1664525 + 1013904223
		h.buf[h.x%16] = byte(h.x >> 24)
		dt, k := h.hs[e.kind].handle(e, h.buf)
		h.push(calEvent{at: e.at + dt, kind: k, id: h.x})
	}
	h.samples = append(h.samples, time.Since(start).Seconds())
}

// chunks runs n chunks.
func (h *hostSpeed) chunks(n int) {
	for i := 0; i < n; i++ {
		h.chunk()
	}
}

// factor is the median time of chunks [from, to) over the nominal chunk
// time: 1.2 means the host ran 20% slower than the reference host during
// that phase of the run.
func (h *hostSpeed) factor(from, to int) float64 {
	return median(h.samples[from:to]) / nominalChunk.Seconds()
}
