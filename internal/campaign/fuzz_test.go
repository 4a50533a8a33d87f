package campaign

import (
	"encoding/json"
	"testing"
)

// maxFuzzUnits bounds fuzzed unit counts so a single input cannot
// allocate an absurd partition.
const maxFuzzUnits = 1 << 16

// checkPartition asserts the partition invariant every sharding scheme
// must uphold: shards cover [0, total) exactly — every unit in exactly one
// shard — in order, with contiguous indexes and nothing empty.
func checkPartition(t *testing.T, total int, shards []Shard) {
	t.Helper()
	if total <= 0 {
		if len(shards) != 0 {
			t.Fatalf("%d shards for %d units, want none", len(shards), total)
		}
		return
	}
	next := 0
	for i, sh := range shards {
		if sh.Index != i {
			t.Fatalf("shard %d has index %d", i, sh.Index)
		}
		if sh.Start != next {
			t.Fatalf("shard %d starts at %d, want %d (gap or overlap)", i, sh.Start, next)
		}
		if sh.Len() < 1 {
			t.Fatalf("shard %d is empty: %v", i, sh)
		}
		if sh.End > total {
			t.Fatalf("shard %d ends at %d, past %d units", i, sh.End, total)
		}
		next = sh.End
	}
	if next != total {
		t.Fatalf("partition covers [0,%d), want [0,%d)", next, total)
	}
}

// FuzzShards fuzzes the fixed-size partition: arbitrary unit counts and
// shard sizes, including zero and negative values, must always yield a
// deterministic exact cover.
func FuzzShards(f *testing.F) {
	f.Add(10, 3)
	f.Add(0, 5)
	f.Add(7, 0)
	f.Add(1, 1)
	f.Add(1000, 1)
	f.Add(1, 1000)
	f.Add(-3, 4)
	f.Add(64, -1)
	f.Fuzz(func(t *testing.T, total, size int) {
		if total > maxFuzzUnits {
			total %= maxFuzzUnits
		}
		shards := Shards(total, size)
		checkPartition(t, total, shards)
		if total > 0 && size >= 1 {
			for i, sh := range shards {
				if sh.Len() > size {
					t.Fatalf("shard %d holds %d units, cap %d", i, sh.Len(), size)
				}
				if sh.Len() < size && i != len(shards)-1 {
					t.Fatalf("non-final shard %d is short: %v", i, sh)
				}
			}
		}
		again := Shards(total, size)
		if len(again) != len(shards) {
			t.Fatalf("partition not deterministic: %d vs %d shards", len(shards), len(again))
		}
		for i := range shards {
			if shards[i] != again[i] {
				t.Fatalf("partition not deterministic at shard %d: %v vs %v", i, shards[i], again[i])
			}
		}
	})
}

// FuzzShardSeq fuzzes the dynamic-size partition the adaptive controller
// produces: an arbitrary sequence of per-lease sizes (decoded from raw
// bytes, biased to include non-positive values) must still cover every
// unit exactly once, deterministically.
func FuzzShardSeq(f *testing.F) {
	f.Add(10, []byte{3, 1, 4, 1, 5})
	f.Add(240, []byte{4, 24, 24, 24})
	f.Add(5, []byte{})
	f.Add(0, []byte{7})
	f.Add(33, []byte{0, 1, 2})
	f.Add(-1, []byte{9})
	f.Fuzz(func(t *testing.T, total int, raw []byte) {
		if total > maxFuzzUnits {
			total %= maxFuzzUnits
		}
		if len(raw) > 1024 {
			raw = raw[:1024]
		}
		sizes := make([]int, len(raw))
		for i, b := range raw {
			sizes[i] = int(b) - 8 // bias below zero to exercise clamping
		}
		shards := ShardSeq(total, sizes)
		checkPartition(t, total, shards)
		for i, sh := range shards {
			want := 1
			if i < len(sizes) {
				want = sizes[i]
			} else if len(sizes) > 0 {
				want = sizes[len(sizes)-1]
			}
			if want < 1 {
				want = 1
			}
			if sh.Len() > want {
				t.Fatalf("shard %d holds %d units, requested %d", i, sh.Len(), want)
			}
			if sh.Len() < want && sh.End != total {
				t.Fatalf("non-final shard %d is short: %v, requested %d", i, sh, want)
			}
		}
		again := ShardSeq(total, sizes)
		for i := range shards {
			if shards[i] != again[i] {
				t.Fatalf("partition not deterministic at shard %d: %v vs %v", i, shards[i], again[i])
			}
		}
	})
}

// FuzzParseSpec feeds arbitrary bytes to the spec decoder that POST
// /v1/campaign and -spec expose. Every input must either be refused with
// an error or yield a spec that validates, whose unit count does not
// overflow, and whose units — when few enough to compile — match that
// count and carry distinct keys (resume and merge identify units by key).
func FuzzParseSpec(f *testing.F) {
	quick, err := json.Marshal(QuickSpec())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(quick)
	f.Add([]byte(`{"name":"ci","seed":3,"trials":1,"families":["random-sparse"],"sizes":[32],"tasks":[{"task":"wakeup"}]}`))
	f.Add([]byte(`{"trials":1,"experiments":["E1"],"quick":true}`))
	f.Add([]byte(`{"trials":9007199254740993,"families":["path"],"sizes":[2],"tasks":[{"task":"broadcast"}]}`))
	f.Add([]byte(`{"trials":2,"families":["path","path"],"sizes":[16],"tasks":[{"task":"wakeup","schemes":["tree"]}]}`))
	f.Add([]byte(`{"trials":1,"families":["grid"],"sizes":[4],"tasks":[{"task":"wakeup"},{"task":"wakeup","schemes":["tree"]}]}`))
	f.Add([]byte(`{"trials":0}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			if s != nil {
				t.Fatalf("ParseSpec returned a spec with error %v", err)
			}
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("parsed spec fails Validate: %v", err)
		}
		count := s.UnitCount()
		if count < 1 {
			t.Fatalf("UnitCount = %d for a valid spec", count)
		}
		if count > maxFuzzUnits {
			return
		}
		units := s.Units()
		if int64(len(units)) != count {
			t.Fatalf("Units compiled %d units, UnitCount says %d", len(units), count)
		}
		seen := make(map[string]int, len(units))
		for i, u := range units {
			if j, dup := seen[u.Key()]; dup {
				t.Fatalf("units %d and %d share key %s", j, i, u.Key())
			}
			seen[u.Key()] = i
		}
	})
}
