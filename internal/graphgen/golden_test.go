package graphgen

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"oraclesize/internal/graph"
)

// goldenSizes and goldenSeeds span the pinned instances: every small size
// where families clamp or round, and the sizes the experiments sweep.
var (
	goldenSizes = []int{3, 4, 5, 6, 7, 8, 16, 64, 128, 256}
	goldenSeeds = 10
)

// graphDigest hashes a graph's complete observable structure: n, then for
// every node its label, its degree and each port's (To, ToPort), all as
// little-endian int64.
func graphDigest(g *graph.Graph) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	put(int64(g.N()))
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		put(g.Label(v))
		put(int64(g.Degree(v)))
		for _, p := range g.Ports(v) {
			put(int64(p.To))
			put(int64(p.ToPort))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenLine renders one pinned instance as "family n seed sha256".
func goldenLine(t testing.TB, f Family, n int, seed int64) string {
	t.Helper()
	g, err := f.Generate(n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("%s n=%d seed=%d: %v", f.Name, n, seed, err)
	}
	return fmt.Sprintf("%s %d %d %s", f.Name, n, seed, graphDigest(g))
}

// TestFamiliesGolden pins every family's generated graphs byte for byte:
// labels, degrees and every port's far end. Generators may get faster but
// must keep drawing from the rng in the same order, so the digests never
// change. A new family or size adds lines; the failure message prints them.
func TestFamiliesGolden(t *testing.T) {
	fh, err := os.Open("testdata/families.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	want := make(map[string]bool)
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		want[sc.Text()] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, f := range Families() {
		for _, n := range goldenSizes {
			for seed := int64(0); seed < int64(goldenSeeds); seed++ {
				if line := goldenLine(t, f, n, seed); !want[line] {
					t.Errorf("no golden line %q", line)
				}
			}
		}
	}
	if wantLines := len(Families()) * len(goldenSizes) * goldenSeeds; len(want) != wantLines {
		t.Errorf("golden file has %d lines, want %d", len(want), wantLines)
	}
}
