package wire

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"testing"
	"time"
)

// TestParseRetryAfterForms pins both RFC 9110 forms of Retry-After:
// delta-seconds and HTTP-date. The date form is what proxies and load
// balancers in front of ptrack-serve emit; were it to parse to 0, the
// backoff would silently lose its floor.
func TestParseRetryAfterForms(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name  string
		value string
		want  time.Duration
	}{
		{"absent", "", 0},
		{"delta", "2", 2 * time.Second},
		{"delta-zero", "0", 0},
		{"delta-negative", "-3", 0},
		{"delta-padded", "  2  ", 2 * time.Second},
		{"http-date", now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{"http-date-past", now.Add(-time.Minute).Format(http.TimeFormat), 0},
		{"http-date-now", now.Format(http.TimeFormat), 0},
		{"rfc850-date", now.Add(30 * time.Second).Format("Monday, 02-Jan-06 15:04:05 GMT"), 30 * time.Second},
		{"garbage", "soon", 0},
	}
	for _, tc := range cases {
		h := http.Header{}
		if tc.value != "" {
			h.Set("Retry-After", tc.value)
		}
		if got := parseRetryAfter(h, now); got != tc.want {
			t.Errorf("%s: parseRetryAfter(%q) = %v, want %v", tc.name, tc.value, got, tc.want)
		}
	}
}

// TestBackoffDelay pins the wait arithmetic with the jitter draw at
// both ends of its range: doubling from Base, the cap at Max (also far
// past where the doubling would overflow), ±25% jitter, and the
// Retry-After floor applied after the jitter.
func TestBackoffDelay(t *testing.T) {
	b := Backoff{Retries: 9, Base: 100 * time.Millisecond, Max: time.Second}
	low := func(int64) int64 { return 0 }
	high := func(k int64) int64 { return k - 1 }
	cases := []struct {
		name     string
		n        int
		after    time.Duration
		lo, hi   time.Duration
		midpoint time.Duration
	}{
		{"first", 0, 0, 75 * time.Millisecond, 125 * time.Millisecond, 100 * time.Millisecond},
		{"doubled", 2, 0, 300 * time.Millisecond, 500 * time.Millisecond, 400 * time.Millisecond},
		{"capped", 4, 0, 750 * time.Millisecond, 1250 * time.Millisecond, time.Second},
		{"capped-far", 200, 0, 750 * time.Millisecond, 1250 * time.Millisecond, time.Second},
		// The floor raises the base before the jitter and bounds it after.
		{"floor-raises", 0, 2 * time.Second, 2 * time.Second, 2500 * time.Millisecond, 2 * time.Second},
		// Below the capped wait, the floor still stops the jitter's low end.
		{"floor-after-jitter", 4, 900 * time.Millisecond, 900 * time.Millisecond, 1250 * time.Millisecond, time.Second},
	}
	for _, tc := range cases {
		if got := b.delay(tc.n, tc.after, low); got != tc.lo {
			t.Errorf("%s: low jitter = %v, want %v", tc.name, got, tc.lo)
		}
		if got := b.delay(tc.n, tc.after, high); got != tc.hi {
			t.Errorf("%s: high jitter = %v, want %v", tc.name, got, tc.hi)
		}
		if got := b.delay(tc.n, tc.after, func(k int64) int64 { return k / 2 }); got != tc.midpoint {
			t.Errorf("%s: centred jitter = %v, want %v", tc.name, got, tc.midpoint)
		}
	}
	// The live draw stays inside the ±25% band and reaches both halves.
	var below, above bool
	for i := 0; i < 1000; i++ {
		d := b.delay(0, 0, rand.Int64N)
		if d < 75*time.Millisecond || d > 125*time.Millisecond {
			t.Fatalf("jittered wait %v outside [75ms, 125ms]", d)
		}
		below = below || d < 100*time.Millisecond
		above = above || d > 100*time.Millisecond
	}
	if !below || !above {
		t.Errorf("1000 draws never left one side of the base (below=%v above=%v)", below, above)
	}
}

// TestBackoffRetry pins the loop's contract: attempt numbers run 0..N
// (what X-Ptrack-Attempt carries), the last attempt's error comes back
// when the budget runs out, a success or a terminal error ends the
// loop at once, and a Retry-After floors the wait between attempts.
func TestBackoffRetry(t *testing.T) {
	ctx := context.Background()
	fast := Backoff{Retries: 3, Base: time.Microsecond, Max: time.Microsecond}

	var seen []int
	err := fast.Retry(ctx, func(n int) (bool, time.Duration, error) {
		seen = append(seen, n)
		return true, 0, fmt.Errorf("attempt %d", n)
	})
	if fmt.Sprint(seen) != "[0 1 2 3]" {
		t.Errorf("attempt numbers = %v, want [0 1 2 3]", seen)
	}
	if err == nil || err.Error() != "attempt 3" {
		t.Errorf("exhausted budget returned %v, want the last attempt's error", err)
	}

	calls := 0
	err = fast.Retry(ctx, func(n int) (bool, time.Duration, error) {
		calls++
		if n == 1 {
			return false, 0, nil
		}
		return true, 0, errors.New("transient")
	})
	if err != nil || calls != 2 {
		t.Errorf("success on retry 1: err %v after %d calls, want nil after 2", err, calls)
	}

	terminal := errors.New("terminal")
	calls = 0
	err = fast.Retry(ctx, func(int) (bool, time.Duration, error) {
		calls++
		return false, 0, terminal
	})
	if err != terminal || calls != 1 {
		t.Errorf("terminal failure: err %v after %d calls, want it after 1", err, calls)
	}

	calls = 0
	_ = Backoff{Base: time.Microsecond, Max: time.Microsecond}.Retry(ctx, func(int) (bool, time.Duration, error) {
		calls++
		return true, 0, errors.New("transient")
	})
	if calls != 1 {
		t.Errorf("zero retries made %d attempts, want 1", calls)
	}

	// A microsecond backoff retries at once; only the floor stretches it.
	var first, second time.Time
	err = Backoff{Retries: 1, Base: time.Microsecond, Max: time.Microsecond}.Retry(ctx,
		func(n int) (bool, time.Duration, error) {
			if n == 0 {
				first = time.Now()
				return true, 50 * time.Millisecond, errors.New("refused")
			}
			second = time.Now()
			return false, 0, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if gap := second.Sub(first); gap < 50*time.Millisecond {
		t.Errorf("retried after %v, Retry-After promised 50ms", gap)
	}
}

// TestBackoffRetryCancelled proves cancellation ends the loop: mid-wait
// it cuts an hour's backoff short, and a failure that arrives after
// cancellation reports the context's error, not the attempt's.
func TestBackoffRetryCancelled(t *testing.T) {
	slow := Backoff{Retries: 5, Base: time.Hour, Max: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	calls := 0
	start := time.Now()
	err := slow.Retry(ctx, func(int) (bool, time.Duration, error) {
		calls++
		return true, 0, errors.New("transient")
	})
	if !errors.Is(err, context.Canceled) || calls != 1 {
		t.Errorf("cancelled mid-wait: err %v after %d calls, want context.Canceled after 1", err, calls)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Errorf("cancellation took %v to end the wait", waited)
	}

	err = slow.Retry(ctx, func(int) (bool, time.Duration, error) {
		return true, 0, errors.New("transport failed")
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("failure after cancellation = %v, want context.Canceled", err)
	}
}
