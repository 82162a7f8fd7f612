package ids

import (
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/vehicle"
)

func TestNoAlertsOnNormalTraffic(t *testing.T) {
	sched := clock.New()
	v := vehicle.New(sched, vehicle.Config{Seed: 1})
	d := New(sched, Config{Training: 5 * time.Second})
	v.TapOBD(vehicle.OBDBody, d.Observe)
	sched.RunUntil(60 * time.Second)
	if !d.Trained() {
		t.Fatal("detector never finished training")
	}
	if d.KnownIDs() < 8 {
		t.Fatalf("learned only %d identifiers", d.KnownIDs())
	}
	if d.IntrusionDetected() {
		t.Fatalf("false positive on normal traffic: %v", d.Alerts())
	}
}

func TestDetectsBlindFuzzingQuickly(t *testing.T) {
	sched := clock.New()
	v := vehicle.New(sched, vehicle.Config{Seed: 1})
	d := New(sched, Config{Training: 5 * time.Second})
	v.TapOBD(vehicle.OBDBody, d.Observe)
	sched.RunUntil(20 * time.Second)
	if d.IntrusionDetected() {
		t.Fatal("intrusion before the attack started")
	}

	campaign, err := core.NewCampaign(sched, v.AttachOBD(vehicle.OBDBody, "fuzzer"),
		core.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	attackStart := sched.Now()
	campaign.Start()
	var detectedAt time.Duration
	for sched.Now() < attackStart+time.Minute {
		sched.RunFor(time.Millisecond)
		if d.IntrusionDetected() {
			detectedAt = sched.Now()
			break
		}
	}
	campaign.Stop()
	if detectedAt == 0 {
		t.Fatal("blind fuzzing never detected")
	}
	latency := detectedAt - attackStart
	// Nearly every fuzz frame has an unknown id; threshold 3 at 1 ms pacing
	// means detection within a handful of frames.
	if latency > 100*time.Millisecond {
		t.Fatalf("detection latency = %v, want < 100ms", latency)
	}
}

func TestUnknownIDAlert(t *testing.T) {
	sched := clock.New()
	b := bus.New(sched)
	legit := b.Connect("legit")
	d := New(sched, Config{Training: time.Second, AlertThreshold: 1})
	b.Tap(d.Observe)
	beat := sched.Every(100*time.Millisecond, func() { legit.Send(can.MustNew(0x110, []byte{1})) })
	sched.RunUntil(2 * time.Second)
	beat.Stop()
	if !d.Trained() {
		t.Fatal("not trained")
	}
	attacker := b.Connect("attacker")
	attacker.Send(can.MustNew(0x6B0, []byte{0x80}))
	sched.RunFor(100 * time.Millisecond)
	alerts := d.Alerts()
	if len(alerts) != 1 || alerts[0].Kind != UnknownID || alerts[0].ID != 0x6B0 {
		t.Fatalf("alerts = %v", alerts)
	}
	if !d.IntrusionDetected() {
		t.Fatal("threshold 1 not armed")
	}
}

func TestRateAnomalyAlert(t *testing.T) {
	sched := clock.New()
	b := bus.New(sched)
	legit := b.Connect("legit")
	d := New(sched, Config{Training: 2 * time.Second, RateFactor: 4, AlertThreshold: 1})
	b.Tap(d.Observe)
	// Train a 100 ms periodic identifier.
	beat := sched.Every(100*time.Millisecond, func() { legit.Send(can.MustNew(0x110, []byte{1})) })
	sched.RunUntil(3 * time.Second)
	// Spoof the same identifier at 1 ms — a replay/flood attack.
	attacker := b.Connect("attacker")
	flood := sched.Every(time.Millisecond, func() { attacker.Send(can.MustNew(0x110, []byte{9})) })
	sched.RunFor(50 * time.Millisecond)
	beat.Stop()
	flood.Stop()
	found := false
	for _, a := range d.Alerts() {
		if a.Kind == RateAnomaly && a.ID == 0x110 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no rate anomaly: %v", d.Alerts())
	}
}

func TestEventDrivenMessagesTolerated(t *testing.T) {
	// An identifier seen only once in training has no learned gap and must
	// not false-positive later.
	sched := clock.New()
	b := bus.New(sched)
	legit := b.Connect("legit")
	d := New(sched, Config{Training: time.Second, AlertThreshold: 1})
	b.Tap(d.Observe)
	legit.Send(can.MustNew(0x215, []byte{0x10})) // one event frame in training
	beat := sched.Every(100*time.Millisecond, func() { legit.Send(can.MustNew(0x110, []byte{1})) })
	sched.RunUntil(2 * time.Second)
	beat.Stop()
	legit.Send(can.MustNew(0x215, []byte{0x20})) // the event recurs post-training
	sched.RunFor(100 * time.Millisecond)
	if d.IntrusionDetected() {
		t.Fatalf("event-driven id false-positived: %v", d.Alerts())
	}
}

func TestAlertKindString(t *testing.T) {
	if UnknownID.String() != "unknown-id" || RateAnomaly.String() != "rate-anomaly" ||
		AlertKind(0).String() != "unknown" {
		t.Fatal("AlertKind.String broken")
	}
}
