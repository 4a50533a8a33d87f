package graphgen

import (
	"fmt"
	"math/rand"

	"oraclesize/internal/graph"
)

// CompleteBipartite returns K_{a,b}: parts of a and b nodes, every
// cross-pair connected.
func CompleteBipartite(a, b int) (*graph.Graph, error) {
	if a < 1 || b < 1 || a+b < 2 {
		return nil, fmt.Errorf("graphgen: K_{%d,%d} is degenerate", a, b)
	}
	bl := graph.NewBuilder(a + b)
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			bl.AddEdgeAuto(graph.NodeID(i), graph.NodeID(a+j))
		}
	}
	return bl.Graph()
}

// Torus returns the rows x cols wraparound grid (each at least 3 to avoid
// parallel edges).
func Torus(rows, cols int) (*graph.Graph, error) {
	if rows < 3 || cols < 3 {
		return nil, fmt.Errorf("graphgen: torus needs sides >= 3, got %dx%d", rows, cols)
	}
	b := graph.NewBuilder(rows * cols)
	id := func(r, c int) graph.NodeID { return graph.NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddEdgeAuto(id(r, c), id(r, (c+1)%cols))
			b.AddEdgeAuto(id(r, c), id((r+1)%rows, c))
		}
	}
	return b.Graph()
}

// Wheel returns a cycle of n-1 nodes plus a hub adjacent to all of them.
func Wheel(n int) (*graph.Graph, error) {
	if n < 4 {
		return nil, fmt.Errorf("graphgen: wheel needs n >= 4, got %d", n)
	}
	b := graph.NewBuilder(n)
	rim := n - 1
	for i := 0; i < rim; i++ {
		b.AddEdgeAuto(graph.NodeID(i), graph.NodeID((i+1)%rim))
		b.AddEdgeAuto(graph.NodeID(i), graph.NodeID(rim))
	}
	return b.Graph()
}

// RandomRegular returns a connected random d-regular graph on n nodes via
// the pairing model with rejection (n·d must be even, d < n). It retries
// until the multigraph is simple and connected, so very small parameter
// combinations may take a few attempts.
func RandomRegular(n, d int, rng *rand.Rand) (*graph.Graph, error) {
	if d < 2 || d >= n || (n*d)%2 != 0 {
		return nil, fmt.Errorf("graphgen: no %d-regular graph on %d nodes", d, n)
	}
	// The pairing model succeeds with probability ~exp(-(d²-1)/4), so the
	// attempt budget must grow with d²; 50000 covers d <= 7 comfortably.
	const maxAttempts = 50000
	p := newPairing(n, d)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if p.try(rng) && p.connected() {
			return p.graph(rng)
		}
	}
	return nil, fmt.Errorf("graphgen: failed to sample a connected %d-regular graph on %d nodes", d, n)
}

// pairing holds the configuration model's buffers, allocated once per
// RandomRegular call and refilled by every attempt.
type pairing struct {
	n, d  int
	canon []int32 // stubs before shuffling: node v repeated d times, in node order
	stubs []int32 // node of each stub; after try, consecutive pairs are edges
	deg   []int32 // neighbors placed so far per node
	nbr   []int32 // node v's neighbors are nbr[v*d : v*d+deg[v]]
	queue []int32 // BFS queue for connected
	seen  []bool
}

func newPairing(n, d int) *pairing {
	canon := make([]int32, n*d)
	for i := range canon {
		canon[i] = int32(i / d)
	}
	return &pairing{
		n:     n,
		d:     d,
		canon: canon,
		stubs: make([]int32, n*d),
		deg:   make([]int32, n),
		nbr:   make([]int32, n*d),
		queue: make([]int32, 0, n),
		seen:  make([]bool, n),
	}
}

// try runs one round of the configuration model: stubs are paired
// uniformly; the attempt fails on self-loops or parallel edges, found by
// scanning the at most d neighbors placed so far.
func (p *pairing) try(rng *rand.Rand) bool {
	stubs := p.stubs
	copy(stubs, p.canon)
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	clear(p.deg)
	for i := 0; i < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v {
			return false
		}
		base := int(u) * p.d
		for _, w := range p.nbr[base : base+int(p.deg[u])] {
			if w == v {
				return false
			}
		}
		p.nbr[base+int(p.deg[u])] = v
		p.deg[u]++
		p.nbr[int(v)*p.d+int(p.deg[v])] = u
		p.deg[v]++
	}
	return true
}

// connected reports whether the last successful pairing is connected.
func (p *pairing) connected() bool {
	clear(p.seen)
	p.seen[0] = true
	q := append(p.queue[:0], 0)
	for head := 0; head < len(q); head++ {
		u := int(q[head])
		for _, w := range p.nbr[u*p.d : (u+1)*p.d] {
			if !p.seen[w] {
				p.seen[w] = true
				q = append(q, w)
			}
		}
	}
	return len(q) == p.n
}

// graph builds the accepted pairing, ports in pairing order, and shuffles
// its ports.
func (p *pairing) graph(rng *rand.Rand) (*graph.Graph, error) {
	b := graph.NewBuilder(p.n)
	for i := 0; i < len(p.stubs); i += 2 {
		b.AddEdgeAuto(graph.NodeID(p.stubs[i]), graph.NodeID(p.stubs[i+1]))
	}
	g, err := b.Graph()
	if err != nil {
		return nil, err
	}
	return ShufflePorts(g, rng)
}

// ShuffleLabels returns a copy of g whose node labels are a uniformly
// random permutation of the originals. Port structure is unchanged.
// Label-dependent protocols (e.g. radio round-robin) behave very
// differently on sorted vs shuffled labels.
func ShuffleLabels(g *graph.Graph, rng *rand.Rand) (*graph.Graph, error) {
	n := g.N()
	labels := make([]int64, n)
	for v := 0; v < n; v++ {
		labels[v] = g.Label(graph.NodeID(v))
	}
	rng.Shuffle(n, func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetLabel(graph.NodeID(v), labels[v])
	}
	for _, e := range g.Edges() {
		b.AddEdge(e.U, e.PU, e.V, e.PV)
	}
	return b.Graph()
}

// Broom returns a path of handleLen nodes ending in a star of bristles
// leaves — a worst case for eccentricity-sensitive schemes.
func Broom(handleLen, bristles int) (*graph.Graph, error) {
	if handleLen < 1 || bristles < 1 {
		return nil, fmt.Errorf("graphgen: broom needs handleLen >= 1 and bristles >= 1")
	}
	n := handleLen + bristles
	b := graph.NewBuilder(n)
	for i := 0; i < handleLen-1; i++ {
		b.AddEdgeAuto(graph.NodeID(i), graph.NodeID(i+1))
	}
	tip := graph.NodeID(handleLen - 1)
	for i := 0; i < bristles; i++ {
		b.AddEdgeAuto(tip, graph.NodeID(handleLen+i))
	}
	return b.Graph()
}

// BinomialTree returns the binomial tree B_k on 2^k nodes (the recursive
// doubling communication pattern).
func BinomialTree(k int) (*graph.Graph, error) {
	if k < 0 || k > 20 {
		return nil, fmt.Errorf("graphgen: binomial tree order %d out of range [0,20]", k)
	}
	n := 1 << uint(k)
	if n < 2 {
		return nil, fmt.Errorf("graphgen: binomial tree B_0 has a single node")
	}
	b := graph.NewBuilder(n)
	// Node v's parent clears v's lowest set bit.
	for v := 1; v < n; v++ {
		parent := v & (v - 1)
		b.AddEdgeAuto(graph.NodeID(parent), graph.NodeID(v))
	}
	return b.Graph()
}
