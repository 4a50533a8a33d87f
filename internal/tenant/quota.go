package tenant

import (
	"math"
	"sync"
	"time"
)

// bucket is a token-bucket rate limiter. Tokens refill continuously at
// the configured rate up to the burst ceiling; one admission costs one
// token. All state transitions happen under the mutex against an
// explicit clock, so tests drive it deterministically.
type bucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// take attempts to spend one token at time now. On refusal it reports
// how long until a full token will have refilled — the Retry-After hint.
func (b *bucket) take(rate, burst float64, now time.Time) (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		if dt := now.Sub(b.last).Seconds(); dt > 0 {
			b.tokens += dt * rate
			if b.tokens > burst {
				b.tokens = burst
			}
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	deficit := 1 - b.tokens
	wait := deficit / rate * float64(time.Second)
	if wait >= math.MaxInt64 {
		// A tiny rate can put the next token past the longest Duration;
		// the conversion would wrap negative.
		return false, math.MaxInt64
	}
	return false, time.Duration(wait)
}
