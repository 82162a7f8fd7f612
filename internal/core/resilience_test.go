package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/clock"
)

func TestClassifySendErrorExhaustive(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{fmt.Errorf("send: %w", bus.ErrTxQueueFull), CauseQueueFull},
		{fmt.Errorf("send: %w", bus.ErrBusOff), CauseBusOff},
		{fmt.Errorf("send: %w", bus.ErrDetached), CauseDetached},
		{fmt.Errorf("%w (3 attempts, last: %v)", ErrRetryExhausted, bus.ErrTxQueueFull), CauseRetryExhausted},
		{errors.New("anything else"), CauseOther},
	}
	seen := map[string]bool{}
	for _, tc := range cases {
		if got := sendErrorCauses[classifySendErrorIndex(tc.err)]; got != tc.want {
			t.Errorf("classifySendErrorIndex(%v) picks %q, want %q", tc.err, got, tc.want)
		}
		seen[tc.want] = true
	}
	// Every declared cause label must be reachable.
	for _, cause := range sendErrorCauses {
		if !seen[cause] {
			t.Errorf("cause %q not produced by any classification case", cause)
		}
	}
}

func TestRetryRecoversTransientQueueFull(t *testing.T) {
	// A 1-deep queue on a bus slower than the 1 ms send rate makes sends
	// collide with a full queue; with retries those frames are paused and
	// retransmitted rather than dropped.
	s := clock.New()
	b := bus.New(s, bus.WithBitrate(50_000), bus.WithTxQueueCap(1))
	port := b.Connect("fuzzer")
	b.Connect("sink").SetReceiver(func(bus.Message) {})
	c, err := NewCampaign(s, port, Config{Seed: 7},
		WithResilience(DefaultResilience()))
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(200 * time.Millisecond)
	rep := c.BuildReport()
	if rep.Resilience == nil {
		t.Fatal("report missing resilience section")
	}
	if rep.Resilience.Retries == 0 {
		t.Fatal("no retries recorded despite a saturating send rate")
	}
	if got := rep.SendErrorsByCause[CauseQueueFull]; got != 0 {
		t.Fatalf("queue-full abandonments = %d, want 0 (retried instead)", got)
	}
}

func TestRetryExhaustionClassified(t *testing.T) {
	// Permanent saturation: each frame needs ~5-13 ms of wire at 10 kb/s
	// while the retry budget spans well under 1 ms, so it runs out.
	s := clock.New()
	b := bus.New(s, bus.WithBitrate(10_000), bus.WithTxQueueCap(1))
	port := b.Connect("fuzzer")
	b.Connect("sink").SetReceiver(func(bus.Message) {})
	c, err := NewCampaign(s, port, Config{Seed: 7},
		WithResilience(Resilience{RetryMax: 2, RetryBackoff: 100 * time.Microsecond}))
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(time.Second)
	rep := c.BuildReport()
	if rep.Resilience.RetriesExhausted == 0 {
		t.Fatal("no exhausted retries on a hopelessly saturated bus")
	}
	if rep.SendErrorsByCause[CauseRetryExhausted] == 0 {
		t.Fatal("exhausted retries not classified under retry-exhausted")
	}
	if rep.SendErrorsByCause[CauseOther] != 0 {
		t.Fatalf("send errors leaked into 'other': %v", rep.SendErrorsByCause)
	}
}

// busOffRig builds a campaign whose every transmission is corrupted, so the
// fuzzer node drives itself to bus-off shortly after Start.
func busOffRig(t *testing.T, busOpts []bus.Option, campOpts ...Option) (*clock.Scheduler, *bus.Bus, *bus.Port, *Campaign) {
	t.Helper()
	s := clock.New()
	b := bus.New(s, busOpts...)
	port := b.Connect("fuzzer")
	b.Connect("sink").SetReceiver(func(bus.Message) {})
	b.SetInterceptor(func(can.Frame) bus.TxAction { return bus.TxCorrupt })
	c, err := NewCampaign(s, port, Config{Seed: 11}, campOpts...)
	if err != nil {
		t.Fatal(err)
	}
	return s, b, port, c
}

func TestRunUntilFindingStopsOnDeadBus(t *testing.T) {
	// Without recovery, the self-inflicted bus-off must end the run with a
	// classified watchdog finding well before the deadline — not spin
	// ErrBusOff for the full hour.
	s, _, _, c := busOffRig(t, nil)
	f, ok := c.RunUntilFinding(time.Hour)
	if !ok {
		t.Fatal("no finding from a dead bus")
	}
	if f.Verdict.Oracle != "watchdog" {
		t.Fatalf("finding oracle = %q, want watchdog", f.Verdict.Oracle)
	}
	if s.Now() >= time.Hour {
		t.Fatalf("ran to the deadline (%v) instead of short-circuiting", s.Now())
	}
	if c.Running() {
		t.Fatal("campaign still running after watchdog finding")
	}
	rep := c.BuildReport()
	if rep.Resilience == nil || rep.Resilience.WatchdogFires == 0 {
		t.Fatalf("watchdog activity missing from report: %+v", rep.Resilience)
	}
}

func TestAutoRecoveryResumesCampaign(t *testing.T) {
	// With ISO auto-recovery on the bus, the node rejoins on its own after
	// the corruption window and the campaign keeps fuzzing; the report
	// records the bus-off/recovery cycle.
	s, b, port, c := busOffRig(t, []bus.Option{bus.WithAutoRecovery()},
		WithResilience(DefaultResilience()))
	// Clear the fault source shortly after the node goes bus-off.
	s.At(100*time.Millisecond, func() { b.SetInterceptor(nil) })
	c.Start()
	s.RunUntil(time.Second)
	c.Stop()
	rep := c.BuildReport()
	if rep.Resilience.PortBusOffs == 0 || rep.Resilience.PortRecoveries == 0 {
		t.Fatalf("bus-off/recovery cycle not recorded: %+v", rep.Resilience)
	}
	if port.State() != bus.ErrorActive {
		t.Fatalf("port state = %v after recovery, want error-active", port.State())
	}
	if rep.FramesSent < 500 {
		t.Fatalf("FramesSent = %d; campaign did not resume after recovery", rep.FramesSent)
	}
}

func TestNilResilienceKeepsOldBehaviour(t *testing.T) {
	// RunFor without a policy: no watchdog, no retries, report section nil.
	_, _, c := rig(t, Config{Seed: 1})
	c.RunFor(100 * time.Millisecond)
	if rep := c.BuildReport(); rep.Resilience != nil {
		t.Fatalf("unexpected resilience section: %+v", rep.Resilience)
	}
}
