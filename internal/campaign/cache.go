package campaign

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"oraclesize/internal/fifo"
	"oraclesize/internal/graph"
	"oraclesize/internal/graphgen"
	"oraclesize/internal/oracle"
	"oraclesize/internal/sim"
)

// instanceCache shares generated graph instances — and each oracle's advice
// on them — across the trials × schemes × tasks fan-out. Units that agree
// on (family, n, trial) run on one immutable instance instead of
// regenerating it per unit, which both removes the dominant per-unit cost
// and puts competing schemes on the exact same input.
//
// The cache is bounded: entries are evicted in insertion (FIFO) order once
// the capacity is exceeded. A unit that misses after eviction simply
// regenerates the instance from its seed, so cache state never affects
// results — only speed.
//
// One mutex guards the map and the eviction queue; order lists the keys
// oldest first, so eviction is exact FIFO over the configured capacity.
type instanceCache struct {
	mu      sync.Mutex
	entries map[instanceKey]*instanceEntry
	order   fifo.Queue[instanceKey]
	cap     int
	hits    atomic.Int64
	misses  atomic.Int64
}

// instanceKey identifies one cached instance without string formatting:
// the triple is the generation function's full input. The textual form
// "instance/<family>/n<n>/s<seed>" used in logs corresponds 1:1.
type instanceKey struct {
	family string
	n      int
	seed   int64
}

// newInstanceCache returns a cache bounded to capacity instances (minimum 1).
func newInstanceCache(capacity int) *instanceCache {
	capacity = max(capacity, 1)
	return &instanceCache{entries: make(map[instanceKey]*instanceEntry, capacity), cap: capacity}
}

// instanceEntry is one cached instance. The graph is generated at most once
// (workers that race on a fresh entry block on the Once); advice is
// computed at most once per (oracle name, source). The advice map is
// copy-on-write: readers load it with a single atomic and never lock, and
// the rare writer clones it under adviceMu. Both the graph and the advice
// values are immutable after construction, so concurrent units may share
// them freely.
type instanceEntry struct {
	genOnce sync.Once
	g       *graph.Graph
	genErr  error

	advice   atomic.Pointer[map[adviceKey]adviceResult]
	adviceMu sync.Mutex // serializes advice writers
}

// adviceKey identifies one memoized advice computation. Oracles are
// deterministic in (graph, source), so the pair fully identifies the
// result; campaign units always use source 0, the serving path varies it.
type adviceKey struct {
	oracle string
	source graph.NodeID
}

type adviceResult struct {
	advice sim.Advice
	err    error
}

// lookup returns the entry stored under key, generating the graph on first
// use from the key's seed.
func (c *instanceCache) lookup(key instanceKey, fam graphgen.Family) (*instanceEntry, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &instanceEntry{}
		c.entries[key] = e
		c.order.Push(key)
		if c.order.Len() > c.cap {
			// Evicting an entry another worker still holds is safe: their
			// pointer stays valid, the instance just stops being shared.
			delete(c.entries, c.order.Pop())
		}
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.genOnce.Do(func() {
		rng := rand.New(rand.NewSource(key.seed))
		e.g, e.genErr = fam.Generate(key.n, rng)
	})
	return e, e.genErr
}

// instance returns the entry for u's graph instance, generating the graph
// on first use from the unit's instance seed. The cache key carries the
// seed rather than the trial index: within one spec the two are equivalent
// (InstanceSeed is a function of the spec seed and InstanceKey), but a
// cache shared across specs — the oracled service keeps one alive across
// campaign submissions — must not hand a unit from one spec a graph
// generated under another spec's seed, or cached runs would silently stop
// reproducing. The key matches Cache.Instance, so campaign units and
// direct service requests that agree on (family, n, seed) share too.
func (c *instanceCache) instance(u Unit, fam graphgen.Family) (*instanceEntry, error) {
	return c.lookup(instanceKey{family: u.Family, n: u.N, seed: u.InstanceSeed}, fam)
}

// advise returns o's advice for the entry's graph, computed once per
// (oracle name, source). The read path is a single atomic load plus a map
// lookup — no lock — so steady-state serving never contends here.
func (e *instanceEntry) advise(o oracle.Oracle, source graph.NodeID) (sim.Advice, error) {
	key := adviceKey{oracle: o.Name(), source: source}
	if m := e.advice.Load(); m != nil {
		if r, ok := (*m)[key]; ok {
			return r.advice, r.err
		}
	}
	e.adviceMu.Lock()
	defer e.adviceMu.Unlock()
	old := e.advice.Load()
	if old != nil {
		if r, ok := (*old)[key]; ok {
			return r.advice, r.err
		}
	}
	var r adviceResult
	r.advice, r.err = o.Advise(e.g, source)
	size := 1
	if old != nil {
		size += len(*old)
	}
	next := make(map[adviceKey]adviceResult, size)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	next[key] = r
	e.advice.Store(&next)
	return r.advice, r.err
}

// CacheStats is a point-in-time snapshot of instance-cache effectiveness.
// Hits reused a shared graph instance; misses generated one. Cache state
// never affects record contents, only speed.
type CacheStats struct {
	Hits   int64
	Misses int64
}

// Lookups is the total number of instance resolutions.
func (s CacheStats) Lookups() int64 { return s.Hits + s.Misses }

// HitRatio is Hits/Lookups, or 0 before any lookup.
func (s CacheStats) HitRatio() float64 {
	if total := s.Lookups(); total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// Sub returns the stats accumulated since an earlier snapshot.
func (s CacheStats) Sub(earlier CacheStats) CacheStats {
	return CacheStats{Hits: s.Hits - earlier.Hits, Misses: s.Misses - earlier.Misses}
}

// Cache is the exported handle on a bounded instance cache, for callers
// that keep one alive across many executions (the oracled service shares
// one between its request handlers and its campaign runs). The zero value
// is not usable; construct with NewCache.
type Cache struct {
	c *instanceCache
}

// NewCache returns a cache bounded to the given number of instances
// (minimum 1), evicted FIFO, with a single lock.
func NewCache(capacity int) *Cache {
	return &Cache{c: newInstanceCache(capacity)}
}

// NewShardedCache is NewCache; the shard count is ignored.
//
// Deprecated: use NewCache.
func NewShardedCache(capacity, _ int) *Cache { return NewCache(capacity) }

// Stats snapshots the cumulative hit/miss counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{Hits: c.c.hits.Load(), Misses: c.c.misses.Load()}
}

// Instance resolves the cached instance of fam at the requested size and
// seed, generating it on first use. The returned Instance shares immutable
// state; it remains valid after eviction.
func (c *Cache) Instance(fam graphgen.Family, n int, seed int64) (*Instance, error) {
	e, err := c.c.lookup(instanceKey{family: fam.Name, n: n, seed: seed}, fam)
	if err != nil {
		return nil, err
	}
	return &Instance{e: e}, nil
}

// Instance is one cached graph plus its memoized per-oracle advice.
type Instance struct {
	e *instanceEntry
}

// Graph returns the generated graph. Callers must treat it as immutable.
func (i *Instance) Graph() *graph.Graph { return i.e.g }

// Advice returns o's advice on the instance from the given source,
// computing it at most once per (oracle name, source).
func (i *Instance) Advice(o oracle.Oracle, source graph.NodeID) (sim.Advice, error) {
	return i.e.advise(o, source)
}
