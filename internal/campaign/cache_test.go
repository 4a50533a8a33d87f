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
	if len(c.entries) > capacity {
		t.Errorf("entries = %d, want <= %d", len(c.entries), capacity)
	}
	if live := c.order.Len(); live > capacity {
		t.Errorf("live order window = %d, want <= %d", live, capacity)
	}
}

// TestCacheHoldsCapacity churns many distinct instances through caches of
// awkward capacities and requires the live entry count to reach exactly the
// configured capacity and never exceed it.
func TestCacheHoldsCapacity(t *testing.T) {
	fam, err := graphgen.FamilyByName("path")
	if err != nil {
		t.Fatal(err)
	}
	for _, capacity := range []int{1, 3, 5, 100, 128} {
		c := newInstanceCache(capacity)
		peak := 0
		for seed := int64(0); seed < 10_000; seed++ {
			if _, err := c.lookup(instanceKey{family: "path", n: 2, seed: seed}, fam); err != nil {
				t.Fatal(err)
			}
			peak = max(peak, len(c.entries))
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
