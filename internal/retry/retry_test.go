package retry

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

// TestDelayDoubling pins the uncapped, unjittered schedule to the exact
// doubling series the campaign resilience layer has always used:
// Base << (attempt-1).
func TestDelayDoubling(t *testing.T) {
	p := Policy{Base: time.Millisecond}
	for attempt := 1; attempt <= 10; attempt++ {
		want := time.Millisecond << (attempt - 1)
		if got := p.Delay(attempt, nil); got != want {
			t.Fatalf("Delay(%d) = %v, want %v", attempt, got, want)
		}
	}
	if got := p.Delay(0, nil); got != time.Millisecond {
		t.Fatalf("Delay(0) = %v, want clamped to attempt 1 = 1ms", got)
	}
	if got := (Policy{}).Delay(5, nil); got != 0 {
		t.Fatalf("zero policy Delay = %v, want 0", got)
	}
}

// TestDelayCap asserts the cap bounds growth and that huge attempt counts
// saturate instead of overflowing into negative durations.
func TestDelayCap(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Cap: time.Second}
	if got := p.Delay(3, nil); got != 400*time.Millisecond {
		t.Fatalf("Delay(3) = %v, want 400ms (below cap)", got)
	}
	for _, attempt := range []int{5, 12, 64, 1 << 20} {
		if got := p.Delay(attempt, nil); got != time.Second {
			t.Fatalf("Delay(%d) = %v, want capped 1s", attempt, got)
		}
	}
	// Uncapped growth must saturate, never go negative.
	unc := Policy{Base: time.Second}
	if got := unc.Delay(200, nil); got != math.MaxInt64 {
		t.Fatalf("uncapped Delay(200) = %v, want MaxInt64 saturation", got)
	}
}

// TestDelayJitterBounds draws many jittered delays from a seeded RNG and
// asserts every one lands in [d*(1-Jitter), d], with both extremes of the
// range actually exercised (the spread is real, not a constant offset).
func TestDelayJitterBounds(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Cap: time.Second, Jitter: 0.5}
	rng := rand.New(rand.NewPCG(42, 0))
	const attempt = 4 // grown delay: 800ms -> jitter range [400ms, 800ms]
	lo, hi := 400*time.Millisecond, 800*time.Millisecond
	min, max := hi, lo
	for i := 0; i < 10000; i++ {
		d := p.Delay(attempt, rng)
		if d < lo || d > hi {
			t.Fatalf("jittered delay %v outside [%v, %v]", d, lo, hi)
		}
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if min > lo+hi/10 || max < hi-hi/10 {
		t.Fatalf("jitter not spread across the range: saw [%v, %v] within [%v, %v]",
			min, max, lo, hi)
	}
	// Jitter with no RNG falls back to the deterministic upper bound.
	if got := p.Delay(attempt, nil); got != hi {
		t.Fatalf("Delay without rng = %v, want deterministic %v", got, hi)
	}
	// Jitter > 1 is clamped: delays stay non-negative.
	wild := Policy{Base: time.Millisecond, Jitter: 40}
	for i := 0; i < 1000; i++ {
		if d := wild.Delay(1, rng); d < 0 || d > time.Millisecond {
			t.Fatalf("clamped jitter produced %v", d)
		}
	}
}

// TestDoRetriesUntilSuccess asserts Do retries failures and stops at the
// first success.
func TestDoRetriesUntilSuccess(t *testing.T) {
	calls := 0
	err := Do(context.Background(), Policy{Base: time.Microsecond}, 5, nil, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("Do = %v after %d calls, want nil after 3", err, calls)
	}
}

// TestDoExhaustsBudget asserts the last error surfaces when every attempt
// fails.
func TestDoExhaustsBudget(t *testing.T) {
	want := errors.New("still broken")
	calls := 0
	err := Do(context.Background(), Policy{Base: time.Microsecond}, 4, nil, func() error {
		calls++
		return want
	})
	if !errors.Is(err, want) || calls != 4 {
		t.Fatalf("Do = %v after %d calls, want %v after 4", err, calls, want)
	}
}

// TestDoContextCancelled asserts a cancelled context aborts the backoff
// wait and surfaces context.Canceled.
func TestDoContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	errCh := make(chan error, 1)
	go func() {
		errCh <- Do(ctx, Policy{Base: time.Hour}, 3, nil, func() error {
			calls++
			return errors.New("fail")
		})
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Do = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do did not abort on context cancellation")
	}
	if calls != 1 {
		t.Fatalf("fn called %d times, want 1 (cancelled during first backoff)", calls)
	}
}

// TestDoZeroAllocSuccess pins the success path at zero allocations: a
// first-try success must not build timers, errors or rng state.
func TestDoZeroAllocSuccess(t *testing.T) {
	ctx := context.Background()
	p := Policy{Base: time.Millisecond, Cap: time.Second, Jitter: 0.5}
	ok := func() error { return nil }
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := Do(ctx, p, 5, nil, ok); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Do success path allocates %.1f objects/op, want 0", allocs)
	}
	// Delay itself is pure arithmetic.
	rng := rand.New(rand.NewPCG(1, 0))
	if allocs := testing.AllocsPerRun(1000, func() {
		_ = p.Delay(7, rng)
	}); allocs != 0 {
		t.Fatalf("Delay allocates %.1f objects/op, want 0", allocs)
	}
}
