// Package ids implements a CAN intrusion-detection ECU — the defender's
// side of the paper's §VII discussion: "Use the fuzz test to determine the
// effectiveness of protection measures... or additions to ECU software to
// mitigate cyber attacks". The detector is the classic frequency/anomaly
// IDS from the in-vehicle security literature:
//
//   - a training window learns the identifier population and each
//     identifier's nominal inter-arrival time;
//   - afterwards, frames with unknown identifiers, or arriving much faster
//     than an identifier's learned period, raise alerts.
//
// Random fuzzing is maximally loud against such a detector: nearly every
// fuzz frame carries an unknown identifier. The ablation benchmark
// measures detection latency — how much fuzzing a monitored bus tolerates
// before the IDS fires — closing the loop on the paper's observation that
// "vehicle systems need additional logic to ignore nonsensical CAN message
// values".
package ids

import (
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/clock"
)

// AlertKind classifies a detection.
type AlertKind int

const (
	// UnknownID flags an identifier never seen during training.
	UnknownID AlertKind = iota + 1
	// RateAnomaly flags a known identifier arriving far above its learned
	// rate.
	RateAnomaly
)

// String returns the kind name.
func (k AlertKind) String() string {
	switch k {
	case UnknownID:
		return "unknown-id"
	case RateAnomaly:
		return "rate-anomaly"
	default:
		return "unknown"
	}
}

// Alert is one detection event.
type Alert struct {
	// Time is the virtual detection instant.
	Time time.Duration
	// Kind classifies the anomaly.
	Kind AlertKind
	// ID is the offending identifier.
	ID can.ID
}

// Config tunes the detector.
type Config struct {
	// Training is the learning window measured from the first observed
	// frame (default 5s).
	Training time.Duration
	// RateFactor is how much faster than the learned minimum inter-arrival
	// a frame must arrive to count as an anomaly (default 4).
	RateFactor float64
	// AlertThreshold is how many anomalous frames arm the intrusion state
	// (default 3, tolerating isolated event-driven messages).
	AlertThreshold int
}

func (c Config) withDefaults() Config {
	if c.Training <= 0 {
		c.Training = 5 * time.Second
	}
	if c.RateFactor <= 0 {
		c.RateFactor = 4
	}
	if c.AlertThreshold <= 0 {
		c.AlertThreshold = 3
	}
	return c
}

// profile is the learned state per identifier.
type profile struct {
	lastSeen time.Duration
	minGap   time.Duration
	frames   uint64
}

// Detector is the IDS application. Attach Observe to a bus tap or an ECU
// catch-all handler.
type Detector struct {
	sched *clock.Scheduler
	cfg   Config

	profiles   map[can.ID]*profile
	trainStart time.Duration
	trained    bool
	started    bool

	alerts    []Alert
	anomalies int
	intrusion bool
}

// New builds a detector on the scheduler's clock.
func New(sched *clock.Scheduler, cfg Config) *Detector {
	return &Detector{
		sched:    sched,
		cfg:      cfg.withDefaults(),
		profiles: make(map[can.ID]*profile),
	}
}

// Trained reports whether the learning window has closed.
func (d *Detector) Trained() bool { return d.trained }

// IntrusionDetected reports whether the anomaly count crossed the alert
// threshold.
func (d *Detector) IntrusionDetected() bool { return d.intrusion }

// Alerts returns a copy of the alert log.
func (d *Detector) Alerts() []Alert {
	out := make([]Alert, len(d.alerts))
	copy(out, d.alerts)
	return out
}

// KnownIDs returns how many identifiers the training window learned.
func (d *Detector) KnownIDs() int { return len(d.profiles) }

// Observe feeds one bus frame to the detector.
func (d *Detector) Observe(m bus.Message) {
	now := d.sched.Now()
	if !d.started {
		d.started = true
		d.trainStart = now
	}
	if !d.trained {
		if now-d.trainStart < d.cfg.Training {
			d.learn(m.Frame.ID, now)
			return
		}
		d.trained = true
	}
	d.detect(m.Frame.ID, now)
}

func (d *Detector) learn(id can.ID, now time.Duration) {
	p, ok := d.profiles[id]
	if !ok {
		p = &profile{minGap: -1}
		d.profiles[id] = p
	}
	if p.frames > 0 {
		gap := now - p.lastSeen
		if p.minGap < 0 || gap < p.minGap {
			p.minGap = gap
		}
	}
	p.lastSeen = now
	p.frames++
}

func (d *Detector) detect(id can.ID, now time.Duration) {
	p, known := d.profiles[id]
	if !known {
		d.raise(Alert{Time: now, Kind: UnknownID, ID: id})
		return
	}
	if p.minGap > 0 && p.frames > 1 {
		gap := now - p.lastSeen
		if float64(gap)*d.cfg.RateFactor < float64(p.minGap) {
			d.raise(Alert{Time: now, Kind: RateAnomaly, ID: id})
		}
	}
	p.lastSeen = now
	p.frames++
}

func (d *Detector) raise(a Alert) {
	d.alerts = append(d.alerts, a)
	d.anomalies++
	if d.anomalies >= d.cfg.AlertThreshold {
		d.intrusion = true
	}
}
