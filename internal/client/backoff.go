package client

import (
	"errors"
	"time"

	"mpcgraph/internal/rng"
)

// ErrRetriesExhausted is returned when a retryable daemon rejection
// (HTTP 429 or 503) outlasts the client's retry budget. cmd/mpcgraph
// maps it to exit code 6 so scripts can tell "the daemon is saturated"
// from a plain failure and apply their own, coarser backoff.
var ErrRetriesExhausted = errors.New("retries exhausted")

// backoff plans the jittered exponential retry delays of the client.
// It follows the repo's determinism discipline: the jitter comes from
// an internal/rng stream seeded by stable inputs (not math/rand, not
// the clock), so a replayed invocation plans the exact same delay
// sequence. The budget is likewise the *sum of planned sleeps*, not
// elapsed wall time — package client never reads the wall clock (the
// no-wall-clock analyzer, docs/analysis.md) — which keeps the
// exhaustion point reproducible too. The stream label keeps its
// historical "cli-backoff-" prefix so delay sequences are unchanged.
//
// Delays double from base to cap with jitter drawn uniformly from
// [d/2, d), decorrelating clients that were rejected by the same
// admission-control event. A Retry-After hint from the server
// overrides the planned delay for that attempt: the server knows its
// queue, the client only guesses.
type backoff struct {
	src  *rng.Source
	base time.Duration
	cap  time.Duration

	attempts    int
	maxAttempts int
	slept       time.Duration // sum of every delay handed out so far
	budget      time.Duration // bound on slept; <= 0 means unbounded
}

// newBackoff plans up to maxAttempts retries for the purpose-labeled
// stream derived from seed.
func newBackoff(seed uint64, purpose string, base, cap time.Duration, maxAttempts int, budget time.Duration) *backoff {
	return &backoff{
		src:         rng.New(seed).SplitString("cli-backoff-" + purpose),
		base:        base,
		cap:         cap,
		maxAttempts: maxAttempts,
		budget:      budget,
	}
}

// next returns the delay to sleep before the upcoming retry, or false
// when the attempt or sleep budget is spent. retryAfter is the
// server's Retry-After hint (0 = none), which wins over the planned
// delay.
func (b *backoff) next(retryAfter time.Duration) (time.Duration, bool) {
	if b.attempts >= b.maxAttempts {
		return 0, false
	}
	d := b.base << b.attempts
	if d > b.cap || d <= 0 { // <= 0 guards shift overflow
		d = b.cap
	}
	// Jitter in [d/2, d): never sleeps longer than the exponential
	// envelope, never collapses below half of it.
	d = d/2 + time.Duration(b.src.Float64()*float64(d/2))
	if retryAfter > 0 {
		d = retryAfter
	}
	if b.budget > 0 && b.slept+d > b.budget {
		return 0, false
	}
	b.attempts++
	b.slept += d
	return d, true
}
