package campaign

import (
	"reflect"
	"testing"

	"oraclesize/internal/graphgen"
)

// taskUnits returns the quick spec's task units (the ones the instance
// cache serves).
func taskUnits(t *testing.T) (*Spec, []Unit) {
	t.Helper()
	spec := QuickSpec()
	var units []Unit
	for _, u := range spec.Units() {
		if u.Kind == KindTask {
			units = append(units, u)
		}
	}
	if len(units) == 0 {
		t.Fatal("quick spec has no task units")
	}
	return spec, units
}

// TestCacheDoesNotChangeRecords is the cache-transparency contract: every
// task unit must produce identical records (modulo WallNS) with a shared
// cache, with a cold cache, and with no cache at all — the cache is pure
// memoization of a deterministic function of InstanceSeed.
func TestCacheDoesNotChangeRecords(t *testing.T) {
	spec, units := taskUnits(t)
	hash := spec.Hash()
	shared := newInstanceCache(len(units))
	for _, u := range units {
		variants := []struct {
			label string
			cache *instanceCache
		}{
			{"uncached", nil},
			{"cold", newInstanceCache(1)},
			{"shared", shared},
		}
		var want []Record
		for _, v := range variants {
			recs, err := runUnit(spec, hash, u, v.cache)
			if err != nil {
				t.Fatalf("%s %s: %v", u.Key(), v.label, err)
			}
			for i := range recs {
				recs[i].WallNS = 0
			}
			if want == nil {
				want = recs
				continue
			}
			if !reflect.DeepEqual(want, recs) {
				t.Errorf("%s: %s records differ from uncached:\nuncached: %+v\n%s: %+v",
					u.Key(), v.label, want, v.label, recs)
			}
		}
	}
}

// TestSharedCacheAcrossSpecSeeds is the shared-cache reproducibility
// contract the oracled service relies on: one cache kept alive across
// campaigns with different spec seeds must produce exactly the records a
// private cache would. Units of the two specs agree on (family, n, trial)
// but not on InstanceSeed, so a cache keyed without the seed would serve
// the second spec the first spec's graphs.
func TestSharedCacheAcrossSpecSeeds(t *testing.T) {
	specA := QuickSpec()
	specB := QuickSpec()
	specB.Seed = specA.Seed + 1
	shared := newInstanceCache(256)
	for _, spec := range []*Spec{specA, specB} {
		hash := spec.Hash()
		for _, u := range spec.Units() {
			if u.Kind != KindTask {
				continue
			}
			got, err := runUnit(spec, hash, u, shared)
			if err != nil {
				t.Fatalf("seed %d %s shared: %v", spec.Seed, u.Key(), err)
			}
			want, err := runUnit(spec, hash, u, nil)
			if err != nil {
				t.Fatalf("seed %d %s uncached: %v", spec.Seed, u.Key(), err)
			}
			for i := range got {
				got[i].WallNS = 0
			}
			for i := range want {
				want[i].WallNS = 0
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d %s: shared-cache records differ from uncached:\nshared:   %+v\nuncached: %+v",
					spec.Seed, u.Key(), got, want)
			}
		}
	}
}

// TestShardedCacheDoesNotChangeRecords extends the transparency contract
// to the sharded constructor the oracled service uses: task units run
// against a many-shard cache must produce exactly the records an
// unsharded (and an uncached) run would.
func TestShardedCacheDoesNotChangeRecords(t *testing.T) {
	spec, units := taskUnits(t)
	hash := spec.Hash()
	sharded := newShardedInstanceCache(len(units), 8)
	for _, u := range units {
		got, err := runUnit(spec, hash, u, sharded)
		if err != nil {
			t.Fatalf("%s sharded: %v", u.Key(), err)
		}
		want, err := runUnit(spec, hash, u, nil)
		if err != nil {
			t.Fatalf("%s uncached: %v", u.Key(), err)
		}
		for i := range got {
			got[i].WallNS = 0
		}
		for i := range want {
			want[i].WallNS = 0
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: sharded-cache records differ from uncached:\nsharded:  %+v\nuncached: %+v",
				u.Key(), got, want)
		}
	}
}

// TestShardedCacheSpreadsKeys sanity-checks the partitioning: distinct
// seeds land in more than one shard, and total capacity is preserved.
func TestShardedCacheSpreadsKeys(t *testing.T) {
	c := newShardedInstanceCache(64, 8)
	if len(c.shards) != 8 {
		t.Fatalf("shards = %d, want 8", len(c.shards))
	}
	fam, err := graphgen.FamilyByName("random-sparse")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 64; seed++ {
		if _, err := c.lookup(instanceKey{family: "random-sparse", n: 8, seed: seed}, fam); err != nil {
			t.Fatal(err)
		}
	}
	populated := 0
	total := 0
	for i := range c.shards {
		if n := len(c.shards[i].entries); n > 0 {
			populated++
			total += n
		}
	}
	if populated < 2 {
		t.Errorf("64 distinct keys landed in %d shard(s); hash is not spreading", populated)
	}
	if total > 64 {
		t.Errorf("sharded cache holds %d entries, capacity 64", total)
	}
	// Shard counts round up to a power of two and never exceed capacity.
	if got := len(newShardedInstanceCache(4, 100).shards); got != 4 {
		t.Errorf("shards(cap=4, want 100) = %d, want 4", got)
	}
	if got := len(newShardedInstanceCache(64, 5).shards); got != 8 {
		t.Errorf("shards(cap=64, want 5) = %d, want 8 (next power of two)", got)
	}
}

// TestEvictionOrderDoesNotLeak is the regression test for the FIFO order
// list: churning far more distinct instances than the capacity through the
// cache must leave both the entry map and the live order window bounded by
// the capacity, not the history. The backing-array bound is pinned on
// fifo.Queue itself (TestQueueChurnStaysBounded).
func TestEvictionOrderDoesNotLeak(t *testing.T) {
	const capacity = 4
	c := newInstanceCache(capacity)
	fam, err := graphgen.FamilyByName("path")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 10_000; seed++ {
		if _, err := c.lookup(instanceKey{family: "path", n: 4, seed: seed}, fam); err != nil {
			t.Fatal(err)
		}
	}
	s := &c.shards[0]
	if len(s.entries) > capacity {
		t.Errorf("entries = %d, want <= %d", len(s.entries), capacity)
	}
	if live := s.order.Len(); live > capacity {
		t.Errorf("live order window = %d, want <= %d", live, capacity)
	}
}

// TestShardedCacheHoldsCapacity churns many distinct instances through
// caches of awkward capacities and requires the live entry count never to
// exceed the configured capacity. Rounding the shard count up and giving
// every shard ceil(capacity/shards) slots used to let capacity 5 hold 8
// instances and capacity 100 hold 104.
func TestShardedCacheHoldsCapacity(t *testing.T) {
	fam, err := graphgen.FamilyByName("path")
	if err != nil {
		t.Fatal(err)
	}
	for _, capacity := range []int{1, 3, 5, 100, 128} {
		c := newShardedInstanceCache(capacity, 8)
		peak := 0
		for seed := int64(0); seed < 10_000; seed++ {
			if _, err := c.lookup(instanceKey{family: "path", n: 2, seed: seed}, fam); err != nil {
				t.Fatal(err)
			}
			live := 0
			for i := range c.shards {
				live += len(c.shards[i].entries)
			}
			peak = max(peak, live)
		}
		if peak != capacity {
			t.Errorf("capacity %d: peak live entries %d, want exactly %d", capacity, peak, capacity)
		}
	}
}

// TestCacheHitMissAccounting checks that trials of the same instance hit
// the cache after the first miss, and that eviction only regenerates —
// never corrupts — an instance.
func TestCacheHitMissAccounting(t *testing.T) {
	spec, units := taskUnits(t)
	hash := spec.Hash()
	cache := newInstanceCache(len(units))
	seen := map[string]bool{}
	wantMisses := 0
	for _, u := range units {
		if !seen[u.InstanceKey()] {
			seen[u.InstanceKey()] = true
			wantMisses++
		}
		if _, err := runUnit(spec, hash, u, cache); err != nil {
			t.Fatalf("%s: %v", u.Key(), err)
		}
	}
	hits, misses := cache.hits.Load(), cache.misses.Load()
	if int(misses) != wantMisses {
		t.Errorf("misses = %d, want %d (one per distinct instance)", misses, wantMisses)
	}
	if int(hits) != len(units)-wantMisses {
		t.Errorf("hits = %d, want %d", hits, len(units)-wantMisses)
	}
	if len(units) > 1 && hits == 0 {
		t.Error("no cache hits across schemes sharing an instance")
	}
}
