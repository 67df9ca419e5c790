package ch

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

// White-box tests of the skeleton's invariants and of the query's edge
// cases on hand-built networks. Tests comparing the hierarchy against
// the route package's Dijkstra live in the external test package: route
// provides a CH-backed PathEngine, so an in-package import of route
// would be a cycle.

func customizeDI(t *Topology) *Metric {
	g := t.Graph()
	return t.Customize(func(e roadnet.EdgeID) float64 { return g.EdgeWeight(e, roadnet.DI) })
}

// TestSameSourceDest checks the degenerate s == d query: the one-vertex
// path at cost 0, whatever the vertex's place in the elimination tree.
func TestSameSourceDest(t *testing.T) {
	g := roadnet.GenerateGrid(4, 4, 100, roadnet.Residential)
	topo := BuildTopology(g)
	m := customizeDI(topo)
	q := NewMetricQuery(topo)
	for v := 0; v < g.NumVertices(); v++ {
		s := roadnet.VertexID(v)
		p, cost, ok := q.Route(m, s, s)
		if !ok || cost != 0 {
			t.Fatalf("Route(%d,%d) = cost %g ok %v, want 0 true", v, v, cost, ok)
		}
		if len(p) != 1 || p[0] != s {
			t.Fatalf("Route(%d,%d) path = %v, want [%d]", v, v, p, v)
		}
	}
}

// TestDisconnected verifies unreachable pairs are reported as such: a
// disconnected network contracts to a forest, and the chains of two
// vertices in different trees never meet.
func TestDisconnected(t *testing.T) {
	b := roadnet.NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddVertex(geo.Point{X: float64(i) * 100})
	}
	b.AddRoad(0, 1, roadnet.Residential)
	b.AddRoad(2, 3, roadnet.Residential)
	g := b.Build()
	topo := BuildTopology(g)
	m := customizeDI(topo)
	q := NewMetricQuery(topo)
	if _, ok := q.Cost(m, 0, 2); ok {
		t.Fatal("Cost(0,2) reported reachable on disconnected graph")
	}
	if p, _, ok := q.Route(m, 3, 1); ok || p != nil {
		t.Fatalf("Route(3,1) = %v, %v on disconnected graph; want nil, false", p, ok)
	}
	if c, ok := q.Cost(m, 0, 1); !ok || c <= 0 {
		t.Fatalf("Cost(0,1) = %g, %v; want positive, true", c, ok)
	}
}

// TestOneWayStreet verifies directedness is respected: an edge added in
// only one direction must not be usable backwards. Backwards, the climb
// passes through vertices it cannot label — the arcs exist in the
// skeleton but carry +Inf in that direction.
func TestOneWayStreet(t *testing.T) {
	b := roadnet.NewBuilder()
	for i := 0; i < 3; i++ {
		b.AddVertex(geo.Point{X: float64(i) * 100})
	}
	b.AddEdge(0, 1, roadnet.Residential) // one-way
	b.AddEdge(1, 2, roadnet.Residential) // one-way
	g := b.Build()
	topo := BuildTopology(g)
	m := customizeDI(topo)
	q := NewMetricQuery(topo)
	if _, ok := q.Cost(m, 2, 0); ok {
		t.Fatal("one-way chain traversed backwards")
	}
	if c, ok := q.Cost(m, 0, 2); !ok || math.Abs(c-200) > 1e-9 {
		t.Fatalf("Cost(0,2) = %g, %v; want 200, true", c, ok)
	}
	if p, _, ok := q.Route(m, 0, 2); !ok || len(p) != 3 || p[0] != 0 || p[1] != 1 || p[2] != 2 {
		t.Fatalf("Route(0,2) = %v, %v; want [0 1 2], true", p, ok)
	}
}

// TestRankPermutation checks that contraction ranks form a permutation
// of [0, n) and that order is its inverse.
func TestRankPermutation(t *testing.T) {
	g := roadnet.Generate(roadnet.Tiny(3))
	topo := BuildTopology(g)
	n := g.NumVertices()
	if len(topo.rank) != n || len(topo.order) != n {
		t.Fatalf("rank/order sized %d/%d for %d vertices", len(topo.rank), len(topo.order), n)
	}
	for v := 0; v < n; v++ {
		r := topo.rank[v]
		if r < 0 || int(r) >= n {
			t.Fatalf("rank(%d) = %d out of range", v, r)
		}
		if topo.order[r] != int32(v) {
			t.Fatalf("order[rank(%d)] = %d: order is not the inverse of rank", v, topo.order[r])
		}
	}
}

// TestUpwardProperty checks the defining invariants of the CSR: every
// recorded arc leads to a strictly higher-ranked vertex, each range is
// sorted by rank without duplicates, and findArc finds exactly the arcs
// that exist.
func TestUpwardProperty(t *testing.T) {
	g := roadnet.Generate(roadnet.Tiny(9))
	topo := BuildTopology(g)
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		prev := topo.rank[v]
		for k := topo.upStart[v]; k < topo.upStart[v+1]; k++ {
			u := topo.upTo[k]
			if topo.rank[u] <= prev {
				t.Fatalf("up arc %d->%d: rank %d after rank %d (not strictly ascending above the owner)", v, u, topo.rank[u], prev)
			}
			prev = topo.rank[u]
			if got := topo.findArc(v, u); got != k {
				t.Fatalf("findArc(%d,%d) = %d, want %d", v, u, got, k)
			}
			if got := topo.findArc(u, v); got != -1 {
				t.Fatalf("findArc(%d,%d) = %d for an arc owned by the other endpoint, want -1", u, v, got)
			}
		}
	}
}

// TestShortcutsReported recounts the Shortcuts counter from the CSR and
// checks the climb statistics against a direct walk of every chain.
func TestShortcutsReported(t *testing.T) {
	g := roadnet.GenerateGrid(6, 6, 100, roadnet.Residential)
	topo := BuildTopology(g)
	pure := 0
	for k := range topo.upTo {
		if topo.origUp[k] < 0 && topo.origDown[k] < 0 {
			pure++
		}
	}
	if topo.Shortcuts() != pure || pure == 0 || pure >= topo.NumArcs() {
		t.Fatalf("Shortcuts() = %d, recount %d of %d arcs; a grid needs some fill but not only fill", topo.Shortcuts(), pure, topo.NumArcs())
	}
	height, arcs := 0, 0
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		depth := 0
		for u := v; ; u = topo.upTo[topo.upStart[u]] {
			depth++
			arcs += int(topo.upStart[u+1] - topo.upStart[u])
			if topo.upStart[u] == topo.upStart[u+1] {
				break
			}
		}
		if depth > height {
			height = depth
		}
	}
	if topo.Height() != height {
		t.Errorf("Height() = %d, longest chain walked has %d vertices", topo.Height(), height)
	}
	if want := float64(arcs) / float64(g.NumVertices()); math.Abs(topo.ClimbArcsMean()-want) > 1e-9 {
		t.Errorf("ClimbArcsMean() = %g, walking every chain gives %g", topo.ClimbArcsMean(), want)
	}
}
