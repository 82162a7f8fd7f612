// Package retry is the shared backoff implementation behind every layer
// that re-attempts failed work: the campaign resilience policy retries
// rejected transmissions on the virtual clock (core.WithResilience), and
// the distributed campaign service re-dispatches expired trial leases and
// re-sends worker RPCs on the wall clock (internal/campaignd). Both need
// the same delay schedule — exponential doubling from a base, optionally
// capped and jittered — so it lives here once instead of drifting apart
// in two copies.
//
// The package is deliberately tiny and allocation-free: Delay is pure
// arithmetic, and Do allocates nothing when the first attempt succeeds,
// so wrapping a hot call in a retry loop costs one function call on the
// happy path.
package retry

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"time"
)

// Policy describes a capped exponential backoff schedule with optional
// jitter. The zero value is a valid "no delay" policy.
type Policy struct {
	// Base is the delay before the first retry; it doubles on each further
	// attempt. Base <= 0 disables delays entirely.
	Base time.Duration
	// Cap bounds the grown delay (before jitter). Cap <= 0 means uncapped;
	// growth still saturates instead of overflowing.
	Cap time.Duration
	// Jitter is the fraction of the delay that is randomized: the final
	// delay is drawn uniformly from [d*(1-Jitter), d]. Values outside
	// [0, 1] are clamped. Jitter requires an RNG; with a nil RNG the
	// deterministic upper bound is used, which is what the virtual-time
	// resilience layer wants.
	Jitter float64
}

// Delay returns the pause before retry attempt (1-based): Base doubling
// per prior attempt, saturating at Cap (or at the maximum Duration when
// uncapped), then jittered downward by up to Jitter*delay when an RNG is
// provided. attempt < 1 is treated as 1.
func (p Policy) Delay(attempt int, rng *rand.Rand) time.Duration {
	if p.Base <= 0 {
		return 0
	}
	if attempt < 1 {
		attempt = 1
	}
	d := p.Base
	for i := 1; i < attempt; i++ {
		if p.Cap > 0 && d >= p.Cap {
			break
		}
		if d > math.MaxInt64/2 {
			d = math.MaxInt64
			break
		}
		d <<= 1
	}
	if p.Cap > 0 && d > p.Cap {
		d = p.Cap
	}
	if rng != nil && p.Jitter > 0 {
		if span := int64(float64(d) * min(p.Jitter, 1)); span > 0 {
			d -= time.Duration(rng.Int64N(span + 1))
		}
	}
	return d
}

// Sleep blocks for d or until ctx is cancelled, returning ctx.Err() in the
// cancelled case. d <= 0 returns immediately.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Do calls fn until it succeeds, up to attempts tries, sleeping
// p.Delay(try, rng) between failures. It returns nil on success, the last
// error when the attempt budget is exhausted, and a wrapped ctx error when
// the context is cancelled mid-wait. attempts < 1 is treated as 1. The
// success path performs no allocation and starts no timer.
func Do(ctx context.Context, p Policy, attempts int, rng *rand.Rand, fn func() error) error {
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for try := 1; ; try++ {
		if err = fn(); err == nil {
			return nil
		}
		if try >= attempts {
			return err
		}
		if serr := Sleep(ctx, p.Delay(try, rng)); serr != nil {
			return fmt.Errorf("retry aborted: %w (last error: %v)", serr, err)
		}
	}
}
