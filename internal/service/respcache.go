package service

import (
	"sync"

	"oraclesize/internal/fifo"
)

// maxCachedResponse bounds the size of one cached encoded response. Typical
// /v1/run and /v1/advice responses are a few hundred bytes; include_advice
// responses for large n blow past this and simply are not cached.
const maxCachedResponse = 16 << 10

// respCache memoizes the encoded bytes of 200 responses for deterministic
// requests. The serving path's premise — the paper's premise — is that
// advice is a precomputable function of the instance; for the queue engine
// the whole simulation is likewise a pure function of the request tuple, so
// a repeat request can be answered with the previously encoded bytes
// without touching the work queue at all. Entries are immutable once
// stored; one mutex guards the map and the same exact FIFO eviction as the
// instance cache.
//
// Cached responses replay the first execution's wall_ns field verbatim —
// the one response field that is not a function of the request. That is the
// honest reading: wall_ns reports the cost of the simulation that produced
// the numbers, and a cache hit did not run one.
type respCache struct {
	mu      sync.Mutex
	entries map[string][]byte
	order   fifo.Queue[string]
	cap     int
}

// newRespCache returns a cache bounded to capacity responses (minimum 1).
func newRespCache(capacity int) *respCache {
	capacity = max(capacity, 1)
	return &respCache{entries: make(map[string][]byte, capacity), cap: capacity}
}

// get returns the cached encoded response for key, or nil. The returned
// bytes are immutable — callers hand them to ResponseWriter.Write and
// nothing else. Looking up with a []byte key allocates nothing (the
// map[string(key)] conversion is compiler-recognized).
func (c *respCache) get(key []byte) []byte {
	c.mu.Lock()
	body := c.entries[string(key)]
	c.mu.Unlock()
	return body
}

// put stores an encoded response under key. Oversized responses are
// skipped; duplicate puts (two misses racing on the same key) keep the
// first stored value, which is byte-identical anyway for all fields but
// wall_ns.
func (c *respCache) put(key []byte, body []byte) {
	if len(body) > maxCachedResponse {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k := string(key)
	if _, ok := c.entries[k]; ok {
		return
	}
	c.entries[k] = body
	c.order.Push(k)
	if c.order.Len() > c.cap {
		delete(c.entries, c.order.Pop())
	}
}
