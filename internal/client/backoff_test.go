package client

import (
	"testing"
	"time"
)

// TestBackoffDeterministic: identical seeds plan identical delay
// sequences — a replayed invocation retries at the same instants.
func TestBackoffDeterministic(t *testing.T) {
	plan := func() []time.Duration {
		b := newBackoff(42, "submit", 100*time.Millisecond, 5*time.Second, 8, 0)
		var ds []time.Duration
		for {
			d, ok := b.next(0)
			if !ok {
				break
			}
			ds = append(ds, d)
		}
		return ds
	}
	a, b := plan(), plan()
	if len(a) != 8 {
		t.Fatalf("planned %d delays, want 8", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delay %d differs between identical plans: %v vs %v", i, a[i], b[i])
		}
	}
	// The exponential envelope with [d/2, d) jitter.
	for i, d := range a {
		env := 100 * time.Millisecond << i
		if env > 5*time.Second {
			env = 5 * time.Second
		}
		if d < env/2 || d >= env {
			t.Errorf("delay %d = %v outside [%v, %v)", i, d, env/2, env)
		}
	}
}

// TestBackoffHonorsRetryAfter: the server hint replaces the planned
// delay for that attempt.
func TestBackoffHonorsRetryAfter(t *testing.T) {
	b := newBackoff(7, "submit", 100*time.Millisecond, 5*time.Second, 4, 0)
	d, ok := b.next(3 * time.Second)
	if !ok || d != 3*time.Second {
		t.Errorf("retry-after hint not honored: %v %t", d, ok)
	}
}

// TestParseRetryAfterEdgeCases: mpcgraphd only emits the delay-seconds
// form, but the client can sit behind proxies that rewrite the header —
// anything unparseable, negative, or exotic (HTTP-date form) must
// degrade to "no hint" rather than a surprise sleep.
func TestParseRetryAfterEdgeCases(t *testing.T) {
	cases := []struct {
		header string
		want   time.Duration
	}{
		{"", 0},
		{"0", 0},
		{"5", 5 * time.Second},
		{" 7 ", 7 * time.Second}, // surrounding whitespace tolerated
		{"-3", 0},                // negative means no hint, never a negative sleep
		{"2.5", 0},               // non-integer seconds is not the delay-seconds form
		{"1e3", 0},
		{"+2", 0},                            // Atoi accepts "+2" but proxies never emit it; either 0 or 2s is safe — pin current behavior
		{"Fri, 07 Aug 2026 12:00:00 GMT", 0}, // HTTP-date form unsupported by design
		{"soon", 0},
		{"9223372036854775808", 0}, // overflows int64 seconds
	}
	for _, tc := range cases {
		got := parseRetryAfter(tc.header)
		if tc.header == "+2" {
			if got != 0 && got != 2*time.Second {
				t.Errorf("parseRetryAfter(%q) = %v, want 0 or 2s", tc.header, got)
			}
			continue
		}
		if got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}

// TestBackoffRetryAfterZeroAndNegative: a zero or negative hint means
// "no hint" — the planned jittered delay applies, and a negative
// duration never reaches time.Sleep.
func TestBackoffRetryAfterZeroAndNegative(t *testing.T) {
	for _, hint := range []time.Duration{0, -time.Second} {
		b := newBackoff(7, "submit", 100*time.Millisecond, 5*time.Second, 4, 0)
		d, ok := b.next(hint)
		if !ok {
			t.Fatalf("hint %v: first attempt refused", hint)
		}
		if d < 50*time.Millisecond || d >= 100*time.Millisecond {
			t.Errorf("hint %v: delay %v outside the planned [50ms, 100ms) envelope", hint, d)
		}
	}
}

// TestBackoffRetryAfterExceedsBudget: a server hint larger than the
// remaining sleep budget exhausts the backoff immediately — the client
// must not honor a hint it cannot afford, and must not sleep a
// truncated delay either (that would hammer a server that asked for
// patience).
func TestBackoffRetryAfterExceedsBudget(t *testing.T) {
	b := newBackoff(7, "submit", 100*time.Millisecond, 5*time.Second, 100, time.Second)
	if d, ok := b.next(2 * time.Second); ok {
		t.Fatalf("hint beyond the whole budget was granted a %v sleep", d)
	}
	// Partially spent budget: a hint that exceeds the *remainder* is
	// refused even though it is below the original budget.
	b = newBackoff(7, "submit", 100*time.Millisecond, 5*time.Second, 100, time.Second)
	if d, ok := b.next(700 * time.Millisecond); !ok || d != 700*time.Millisecond {
		t.Fatalf("affordable hint refused: %v %t", d, ok)
	}
	if d, ok := b.next(600 * time.Millisecond); ok {
		t.Fatalf("hint beyond the remaining budget was granted a %v sleep", d)
	}
	// The refusal does not consume the attempt budget's remaining
	// affordable attempts: a smaller follow-up hint still fits.
	if d, ok := b.next(200 * time.Millisecond); !ok || d != 200*time.Millisecond {
		t.Fatalf("affordable follow-up hint refused after an unaffordable one: %v %t", d, ok)
	}
}

// TestBackoffRetryAfterAboveCap: the hint deliberately wins over the
// exponential cap — the server knows its queue better than the
// client's envelope does.
func TestBackoffRetryAfterAboveCap(t *testing.T) {
	b := newBackoff(7, "submit", 100*time.Millisecond, 5*time.Second, 4, 0)
	if d, ok := b.next(30 * time.Second); !ok || d != 30*time.Second {
		t.Errorf("hint above cap not honored: %v %t", d, ok)
	}
}

// TestBackoffBudget: the budget bounds the sum of planned sleeps, and
// exhaustion is reported before the overflowing sleep, not after.
func TestBackoffBudget(t *testing.T) {
	b := newBackoff(7, "submit", 100*time.Millisecond, 5*time.Second, 100, 250*time.Millisecond)
	var total time.Duration
	n := 0
	for {
		d, ok := b.next(0)
		if !ok {
			break
		}
		total += d
		n++
	}
	if total > 250*time.Millisecond {
		t.Errorf("planned sleeps total %v, budget 250ms", total)
	}
	if n == 0 || n >= 100 {
		t.Errorf("budget allowed %d attempts", n)
	}
}
