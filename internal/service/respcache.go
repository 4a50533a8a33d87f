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
// stored; shards are independently locked with the same FIFO eviction as
// the instance cache.
//
// Cached responses replay the first execution's wall_ns field verbatim —
// the one response field that is not a function of the request. That is the
// honest reading: wall_ns reports the cost of the simulation that produced
// the numbers, and a cache hit did not run one.
type respCache struct {
	shards []respShard
	mask   uint64
}

type respShard struct {
	mu      sync.Mutex
	entries map[string][]byte
	order   fifo.Queue[string]
	cap     int
}

// newRespCache splits capacity over about the given shard count; see
// fifo.Split for the rounding.
func newRespCache(capacity, shards int) *respCache {
	caps := fifo.Split(capacity, shards)
	c := &respCache{shards: make([]respShard, len(caps)), mask: uint64(len(caps) - 1)}
	for i, per := range caps {
		c.shards[i].entries = make(map[string][]byte, per)
		c.shards[i].cap = per
	}
	return c
}

// fnv1a hashes a key for shard selection.
func fnv1a(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// get returns the cached encoded response for key, or nil. The returned
// bytes are immutable — callers hand them to ResponseWriter.Write and
// nothing else. Looking up with a []byte key allocates nothing (the
// map[string(key)] conversion is compiler-recognized).
func (c *respCache) get(key []byte) []byte {
	s := &c.shards[fnv1a(key)&c.mask]
	s.mu.Lock()
	body := s.entries[string(key)]
	s.mu.Unlock()
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
	s := &c.shards[fnv1a(key)&c.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	k := string(key)
	if _, ok := s.entries[k]; ok {
		return
	}
	s.entries[k] = body
	s.order.Push(k)
	if s.order.Len() > s.cap {
		delete(s.entries, s.order.Pop())
	}
}
