package guided

import (
	"errors"
	"io"
	"strings"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/fleet"
)

// playback is a core.FrameSource that transmits a fixed sequence once, one
// frame per timing tick, then goes silent. A Replay's factory puts one on
// its world for every run.
type playback struct {
	frames []can.Frame
	i      int
}

func (p *playback) Next() (can.Frame, bool) {
	if p.i >= len(p.frames) {
		return can.Frame{}, false
	}
	f := p.frames[p.i]
	p.i++
	return f, true
}

func (p *playback) Observe(bus.Message) {}

// Playback returns a FrameSource that replays frames once, one per tick —
// exported for reproducer verification outside the minimizer.
func Playback(frames []can.Frame) core.FrameSource {
	return &playback{frames: frames}
}

const (
	// ReplaySettle is the quiet virtual time a replay allows after its last
	// frame for responses and oracle latency: the settle the minimizer
	// confirms a reproducer under, and the one a stored trigger is replayed
	// with when its record names none.
	ReplaySettle = 150 * time.Millisecond
	// maxExecutions bounds a minimization's replays. When the budget runs
	// out the remaining candidates count as non-reproducing, so the result
	// is still a valid (just less minimal) reproducer.
	maxExecutions = 512
)

// Replay plays a fixed frame sequence into a world once, one frame per
// Interval, then allows Settle of quiet for the reaction.
type Replay struct {
	Frames   []can.Frame
	Interval time.Duration
	Settle   time.Duration
}

// Deadline is the virtual run time the replay needs: one interval per frame
// plus the settle.
func (r *Replay) Deadline() time.Duration {
	return r.Interval*time.Duration(len(r.Frames)) + r.Settle
}

// Factory wraps factory so that every world it builds plays r.Frames, and
// plays them again from the first frame after each reset in place —
// r.Frames as they stand at that reset.
func (r *Replay) Factory(factory fleet.TargetFactory) fleet.TargetFactory {
	return func(spec fleet.TrialSpec) (*fleet.World, error) {
		w, err := factory(spec)
		if err != nil || w == nil || w.Campaign == nil {
			return w, err
		}
		w.Campaign.SetFrameSource(Playback(r.Frames))
		if reset := w.Reset; reset != nil {
			w.Reset = func(spec fleet.TrialSpec) error {
				err := reset(spec)
				w.Campaign.SetFrameSource(Playback(r.Frames))
				return err
			}
		}
		return w, nil
	}
}

// Minimizer shrinks a finding's trigger window to a minimal reproducer:
// ddmin over the frame sequence, then per-frame length, byte and bit
// shrinking, re-executing every candidate through one fleet.WorldPool per
// Minimize call. The first candidate runs on a world built by Factory;
// later ones run on that world reset in place when it can reset, on a
// fresh build otherwise. Minimization is deterministic: the candidate
// schedule is a pure function of the input sequence, and each execution
// is a pure function of (Factory, Seed), because reset-then-run equals
// build-then-run.
type Minimizer struct {
	// Factory builds the world a candidate executes in (the same factory a
	// fleet trial uses). Required.
	Factory fleet.TargetFactory
	// Seed is passed to the factory (TrialSpec{Index: 0, Seed: Seed}); use
	// the seed of the trial being minimized so the world matches.
	Seed int64
	// Oracle is the name of the oracle whose finding must be reproduced.
	// Required.
	Oracle string
	// Interval is the playback pacing (default core.MinInterval).
	Interval time.Duration

	executions int
	detail     string
	memo       map[string]bool
	replay     Replay
	pool       *fleet.WorldPool
	factory    fleet.TargetFactory
}

// Result is a minimization outcome.
type Result struct {
	// Frames is the minimized sequence (== input when nothing could be
	// removed; nil when the input never reproduced).
	Frames []can.Frame
	// Oracle and Detail describe the reproduced finding.
	Oracle string
	Detail string
	// OriginalFrames is the input length.
	OriginalFrames int
	// Executions is the number of candidate replays spent.
	Executions int
	// Reproduced reports whether even the full input tripped the oracle.
	Reproduced bool
	// Interval and Settle echo the (defaulted) replay pacing the result was
	// confirmed under, so downstream consumers — the findings database, a
	// regression replayer — can re-execute the trigger with the exact
	// timing that reproduced it rather than re-guessing defaults.
	Interval time.Duration
	Settle   time.Duration
}

// ErrNoRepro is returned when the full input sequence does not reproduce
// the finding (the window was too small, or the finding needs state the
// fresh world lacks).
var ErrNoRepro = errors.New("guided: input sequence does not reproduce the finding")

var errMinimizerConfig = errors.New("guided: Minimizer needs Factory and Oracle")

// Minimize runs the full reduction and returns the minimal reproducer.
func (m *Minimizer) Minimize(frames []can.Frame) (Result, error) {
	if m.Factory == nil || m.Oracle == "" {
		return Result{}, errMinimizerConfig
	}
	if m.Interval < core.MinInterval {
		m.Interval = core.MinInterval
	}
	m.executions = 0
	m.memo = make(map[string]bool)
	m.replay = Replay{Interval: m.Interval, Settle: ReplaySettle}
	m.pool = new(fleet.WorldPool)
	m.factory = m.replay.Factory(m.Factory)

	res := Result{Oracle: m.Oracle, OriginalFrames: len(frames),
		Interval: m.Interval, Settle: ReplaySettle}
	if !m.execute(frames) {
		res.Executions = m.executions
		return res, ErrNoRepro
	}
	res.Reproduced = true

	frames = m.ddmin(frames)
	frames = m.shrinkFrames(frames)

	res.Frames = frames
	res.Detail = m.detail
	res.Executions = m.executions
	return res, nil
}

// execute replays a candidate and reports whether the target oracle fired.
// A candidate whose world fails to build or panics does not reproduce.
func (m *Minimizer) execute(cand []can.Frame) bool {
	if len(cand) == 0 {
		return false
	}
	key := strings.Join(Result{Frames: cand}.CorpusLines(), ";")
	if v, ok := m.memo[key]; ok {
		return v
	}
	if m.executions >= maxExecutions {
		return false
	}
	m.executions++
	m.replay.Frames = cand
	tr := m.pool.RunTrial(fleet.TrialSpec{Seed: m.Seed},
		fleet.Config{MaxPerTrial: m.replay.Deadline()}, m.factory)
	ok := tr.Status == fleet.StatusFinding && tr.Oracle == m.Oracle
	if ok {
		m.detail = tr.Detail
	}
	m.memo[key] = ok
	return ok
}

// ddmin is Zeller's delta debugging over the frame sequence: try dropping
// ever-finer chunks, keeping any candidate that still reproduces.
func (m *Minimizer) ddmin(frames []can.Frame) []can.Frame {
	n := 2
	for len(frames) >= 2 {
		chunk := (len(frames) + n - 1) / n
		reduced := false
		for start := 0; start < len(frames); start += chunk {
			end := start + chunk
			if end > len(frames) {
				end = len(frames)
			}
			cand := make([]can.Frame, 0, len(frames)-(end-start))
			cand = append(cand, frames[:start]...)
			cand = append(cand, frames[end:]...)
			if m.execute(cand) {
				frames = cand
				if n > 2 {
					n--
				}
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(frames) {
				break
			}
			n *= 2
			if n > len(frames) {
				n = len(frames)
			}
		}
	}
	return frames
}

// shrinkFrames reduces each surviving frame in place: shortest reproducing
// payload length first, then zeroing bytes, then clearing individual bits.
func (m *Minimizer) shrinkFrames(frames []can.Frame) []can.Frame {
	for i := range frames {
		// Length: adopt the shortest truncation that still reproduces.
		for l := 0; l < int(frames[i].Len); l++ {
			cand := cloneSeq(frames)
			trimFrame(&cand[i], l)
			if m.execute(cand) {
				frames = cand
				break
			}
		}
		// Bytes: zero any byte whose value is not load-bearing.
		for j := 0; j < int(frames[i].Len); j++ {
			if frames[i].Data[j] == 0 {
				continue
			}
			cand := cloneSeq(frames)
			cand[i].Data[j] = 0
			if m.execute(cand) {
				frames = cand
			}
		}
		// Bits: clear remaining set bits one at a time.
		for j := 0; j < int(frames[i].Len); j++ {
			for b := 7; b >= 0; b-- {
				mask := byte(1) << b
				if frames[i].Data[j]&mask == 0 {
					continue
				}
				cand := cloneSeq(frames)
				cand[i].Data[j] &^= mask
				if m.execute(cand) {
					frames = cand
				}
			}
		}
	}
	return frames
}

func cloneSeq(frames []can.Frame) []can.Frame {
	out := make([]can.Frame, len(frames))
	copy(out, frames)
	return out
}

func trimFrame(f *can.Frame, newLen int) {
	for j := newLen; j < int(f.Len); j++ {
		f.Data[j] = 0
	}
	f.Len = uint8(newLen)
}

// CorpusLines returns the minimized frames in the can.AppendFrame
// "ID#HEXDATA" form.
func (r Result) CorpusLines() []string {
	out := make([]string, len(r.Frames))
	for i, f := range r.Frames {
		out[i] = string(can.AppendFrame(nil, f))
	}
	return out
}

// Trigger converts the result to the report's minimized-trigger section.
func (r Result) Trigger() *core.MinimizedTrigger {
	return &core.MinimizedTrigger{
		Oracle:         r.Oracle,
		Detail:         r.Detail,
		OriginalFrames: r.OriginalFrames,
		Frames:         r.CorpusLines(),
		Executions:     r.Executions,
	}
}

// WriteReplayLog writes the minimized sequence as a canreplay-compatible
// capture log, frames spaced by interval on the given interface name.
func (r Result) WriteReplayLog(w io.Writer, iface string, interval time.Duration) error {
	if interval < core.MinInterval {
		interval = core.MinInterval
	}
	t := capture.NewTrace(0)
	for i, f := range r.Frames {
		t.Append(capture.Record{Time: time.Duration(i) * interval, Frame: f, Origin: iface})
	}
	return capture.WriteLog(w, t, iface)
}
