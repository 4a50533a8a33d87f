package graph

import (
	"slices"
	"testing"
)

// refBuilder is the naive builder the CSR Builder must agree with: one
// growable port slice per node, every check made as the calls arrive.
type refBuilder struct {
	labels []int64
	adj    [][]Half
	failed bool
}

func newRefBuilder(n int) *refBuilder {
	r := &refBuilder{labels: make([]int64, n), adj: make([][]Half, n)}
	for v := range r.labels {
		r.labels[v] = int64(v) + 1
	}
	return r
}

func (r *refBuilder) valid(v NodeID) bool { return v >= 0 && int(v) < len(r.labels) }

func (r *refBuilder) setLabel(v NodeID, l int64) {
	if r.failed || !r.valid(v) {
		r.failed = true
		return
	}
	r.labels[v] = l
}

func (r *refBuilder) addEdgeAuto(u, v NodeID) {
	if r.failed || !r.valid(u) || !r.valid(v) {
		r.failed = true
		return
	}
	r.addEdge(u, len(r.adj[u]), v, len(r.adj[v]))
}

func (r *refBuilder) addEdge(u NodeID, pu int, v NodeID, pv int) {
	if r.failed || u == v || !r.valid(u) || !r.valid(v) || pu < 0 || pv < 0 {
		r.failed = true
		return
	}
	for _, e := range []struct {
		v NodeID
		p int
	}{{u, pu}, {v, pv}} {
		for len(r.adj[e.v]) <= e.p {
			r.adj[e.v] = append(r.adj[e.v], Half{To: -1})
		}
	}
	if r.adj[u][pu].To != -1 || r.adj[v][pv].To != -1 {
		r.failed = true
		return
	}
	r.adj[u][pu] = Half{To: v, ToPort: pv}
	r.adj[v][pv] = Half{To: u, ToPort: pu}
}

// ok reports whether the reference would build a graph: no failed call, no
// unused port, no parallel edge, no repeated label.
func (r *refBuilder) ok() bool {
	if r.failed {
		return false
	}
	for v, ports := range r.adj {
		for p, h := range ports {
			if h.To == -1 {
				return false
			}
			for _, h2 := range ports[p+1:] {
				if h2.To == h.To {
					return false
				}
			}
		}
		if slices.Contains(r.labels[v+1:], r.labels[v]) {
			return false
		}
	}
	return true
}

// FuzzBuilder decodes bytes into Builder calls and checks the Builder
// against refBuilder: Graph errors exactly when the reference fails, and
// otherwise yields the reference's ports and labels and passes Validate.
//
// Byte 0 picks n in 1..8. Each call then takes one opcode byte and its
// arguments: node bytes map to -1..n (both ends invalid), port bytes to
// -1..n (n-1 and n are more than any node of a simple graph can use), and
// labels to 0..7 so that repeats are common.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{2, 1, 1, 2, 1, 2, 3})                            // path on 3 nodes
	f.Add([]byte{2, 0, 1, 1, 2, 1, 0, 2, 2, 3, 1, 0, 3, 2, 1, 2}) // triangle, explicit ports
	f.Add([]byte{1, 2, 1, 5, 2, 2, 5})                            // repeated label
	f.Add([]byte{2, 0, 1, 1, 2, 1, 0, 1, 1, 3, 1})                // port clash
	f.Add([]byte{7, 0, 1, 4, 2, 1})                               // unused ports
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 512 {
			return
		}
		n := int(data[0])%8 + 1
		b, ref := NewBuilder(n), newRefBuilder(n)
		data = data[1:]
		arg := func(k int) int {
			if len(data) == 0 {
				return 0
			}
			x := int(data[0])
			data = data[1:]
			return x % k
		}
		node := func() NodeID { return NodeID(arg(n+2) - 1) }
		port := func() int { return arg(n+2) - 1 }
		for len(data) > 0 {
			switch arg(3) {
			case 0:
				u, pu, v, pv := node(), port(), node(), port()
				b.AddEdge(u, pu, v, pv)
				ref.addEdge(u, pu, v, pv)
			case 1:
				u, v := node(), node()
				b.AddEdgeAuto(u, v)
				ref.addEdgeAuto(u, v)
			case 2:
				v, l := node(), int64(arg(8))
				b.SetLabel(v, l)
				ref.setLabel(v, l)
			}
		}
		g, err := b.Graph()
		if want := ref.ok(); (err == nil) != want {
			t.Fatalf("Graph() error %v, reference builds a graph: %v", err, want)
		}
		if err != nil {
			return
		}
		m := 0
		for v := range n {
			if g.Label(NodeID(v)) != ref.labels[v] {
				t.Fatalf("label(%d) = %d, reference %d", v, g.Label(NodeID(v)), ref.labels[v])
			}
			if u, ok := g.NodeByLabel(ref.labels[v]); !ok || int(u) != v {
				t.Fatalf("NodeByLabel(%d) = %d,%v, want %d", ref.labels[v], u, ok, v)
			}
			if !slices.Equal(g.Ports(NodeID(v)), ref.adj[v]) {
				t.Fatalf("ports of %d = %v, reference %v", v, g.Ports(NodeID(v)), ref.adj[v])
			}
			m += len(ref.adj[v])
		}
		if g.M() != m/2 {
			t.Fatalf("M = %d, reference %d", g.M(), m/2)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}
