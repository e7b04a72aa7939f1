package wire

import (
	"context"
	"math/rand/v2"
	"time"
)

// Backoff is a retry budget: after a failed first attempt, up to
// Retries more, the wait before each doubling from Base up to Max.
type Backoff struct {
	Retries   int
	Base, Max time.Duration
}

// Retry calls attempt with attempt numbers 0, 1, … until it succeeds
// (nil error) or fails terminally (retry false), ctx is cancelled, or
// the budget runs out; it returns the last attempt's error, or ctx's.
// A retryable failure also reports the server's Retry-After wait (0
// when none), which floors the wait before the next attempt.
func (b Backoff) Retry(ctx context.Context, attempt func(n int) (retry bool, after time.Duration, err error)) error {
	for n := 0; ; n++ {
		retry, after, err := attempt(n)
		if err == nil || !retry {
			return err
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if n >= b.Retries {
			return err
		}
		if err := b.Wait(ctx, n, after); err != nil {
			return err
		}
	}
}

// Wait sleeps out the backoff after failed attempt n (see delay),
// returning ctx's error if ctx ends first.
func (b Backoff) Wait(ctx context.Context, n int, after time.Duration) error {
	t := time.NewTimer(b.delay(n, after, rand.Int64N))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// delay is the wait after failed attempt n: Base doubled n times and
// capped at Max, raised to the Retry-After wait after, then jittered by
// ±25% so a fleet of backing-off callers does not re-arrive in lockstep.
// jitter(k) draws uniformly from [0, k). The result is floored at after
// once more: a Retry-After is a promise about when capacity returns,
// which the jitter must not undercut.
func (b Backoff) delay(n int, after time.Duration, jitter func(int64) int64) time.Duration {
	d := b.Base
	for i := 0; i < n && d < b.Max; i++ {
		d *= 2
	}
	if d > b.Max || d <= 0 {
		d = b.Max
	}
	d = max(d, after)
	d += time.Duration(jitter(int64(d)/2+1)) - d/4
	return max(d, after)
}
