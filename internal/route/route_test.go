package route

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

// diamond builds the two-route test network: a fast motorway detour on
// top (longer) and a short residential route below.
func diamond(t *testing.T) *roadnet.Graph {
	t.Helper()
	b := roadnet.NewBuilder()
	v0 := b.AddVertex(geo.Pt(0, 0))
	v1 := b.AddVertex(geo.Pt(500, 800))
	v2 := b.AddVertex(geo.Pt(500, -100))
	v3 := b.AddVertex(geo.Pt(1000, 0))
	b.AddRoad(v0, v1, roadnet.Motorway)
	b.AddRoad(v1, v3, roadnet.Motorway)
	b.AddRoad(v0, v2, roadnet.Residential)
	b.AddRoad(v2, v3, roadnet.Residential)
	return b.Build()
}

func TestShortestVsFastestDiverge(t *testing.T) {
	g := diamond(t)
	e := NewEngine(g)
	short, sd, ok := e.Shortest(0, 3)
	if !ok {
		t.Fatal("no shortest path")
	}
	fast, _, ok := e.Fastest(0, 3)
	if !ok {
		t.Fatal("no fastest path")
	}
	if short[1] != 2 {
		t.Errorf("shortest should use lower route, got %v", short)
	}
	if fast[1] != 1 {
		t.Errorf("fastest should use motorway, got %v", fast)
	}
	if wantSD := geo.Pt(0, 0).Dist(geo.Pt(500, -100)) + geo.Pt(500, -100).Dist(geo.Pt(1000, 0)); math.Abs(sd-wantSD) > 1e-9 {
		t.Errorf("shortest dist = %v want %v", sd, wantSD)
	}
}

func TestDijkstraMatchesFloydWarshall(t *testing.T) {
	g := roadnet.Generate(roadnet.Tiny(3))
	// Restrict to a subgraph of the first K vertices for the O(K³)
	// reference; only compare pairs connected within the subgraph.
	const k = 60
	inf := math.Inf(1)
	dist := make([][]float64, k)
	for i := range dist {
		dist[i] = make([]float64, k)
		for j := range dist[i] {
			if i != j {
				dist[i][j] = inf
			}
		}
	}
	for e := roadnet.EdgeID(0); int(e) < g.NumEdges(); e++ {
		ed := g.Edge(e)
		if int(ed.From) < k && int(ed.To) < k {
			if ed.Length < dist[ed.From][ed.To] {
				dist[ed.From][ed.To] = ed.Length
			}
		}
	}
	for m := 0; m < k; m++ {
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if d := dist[i][m] + dist[m][j]; d < dist[i][j] {
					dist[i][j] = d
				}
			}
		}
	}
	// Full-graph Dijkstra costs must be <= subgraph reference costs, and
	// equal whenever the optimal path stays inside the subgraph. We
	// check the one-sided bound, which still catches overestimation
	// bugs, plus exact equality via a subgraph-restricted custom cost.
	eng := NewEngine(g)
	sub := func(eid roadnet.EdgeID) float64 {
		ed := g.Edge(eid)
		if int(ed.From) >= k || int(ed.To) >= k {
			return math.Inf(1)
		}
		return ed.Length
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		s := roadnet.VertexID(rng.Intn(k))
		d := roadnet.VertexID(rng.Intn(k))
		if s == d {
			continue
		}
		_, got, ok := eng.CustomRoute(s, d, sub)
		want := dist[s][d]
		if !ok || math.IsInf(got, 1) {
			if !math.IsInf(want, 1) {
				t.Fatalf("(%d,%d): dijkstra says unreachable, FW says %v", s, d, want)
			}
			continue
		}
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("(%d,%d): dijkstra %v != FW %v", s, d, got, want)
		}
	}
}

func TestRoutePrefSlaveRestriction(t *testing.T) {
	g := diamond(t)
	e := NewEngine(g)
	// Master DI alone prefers the lower residential route.
	p, _, ok := e.RoutePref(0, 3, roadnet.DI, nil)
	if !ok || p[1] != 2 {
		t.Fatalf("DI-only path = %v", p)
	}
	// DI with a motorway slave preference must switch to the upper
	// route even though it is longer (case i of Algorithm 2).
	slave := func(rt roadnet.RoadType) bool { return rt == roadnet.Motorway }
	p, _, ok = e.RoutePref(0, 3, roadnet.DI, slave)
	if !ok || p[1] != 1 {
		t.Fatalf("DI+motorway path = %v", p)
	}
}

func TestRoutePrefFallsBackWhenSlaveUnsatisfiable(t *testing.T) {
	g := roadnet.GenerateGrid(3, 3, 100, roadnet.Residential)
	e := NewEngine(g)
	// No motorways anywhere: case (ii) explores all edges, so routing
	// still succeeds.
	slave := func(rt roadnet.RoadType) bool { return rt == roadnet.Motorway }
	p, _, ok := e.RoutePref(0, 8, roadnet.DI, slave)
	if !ok || len(p) < 2 {
		t.Fatalf("expected fallback path, got %v", p)
	}
}

// TestOneToAllAndBounded holds Bounded to one Route per vertex: Settled
// reports every vertex within the bound at its shortest cost, and
// nothing beyond it.
func TestOneToAllAndBounded(t *testing.T) {
	g := roadnet.GenerateGrid(6, 6, 100, roadnet.Tertiary)
	e := NewEngine(g)
	all := make([]float64, g.NumVertices())
	for v := range all {
		_, c, ok := e.Route(0, roadnet.VertexID(v), roadnet.DI)
		if !ok {
			t.Fatalf("vertex %d unreachable", v)
		}
		all[v] = c
	}
	if all[0] != 0 {
		t.Fatal("self distance not 0")
	}
	// Grid distances are Manhattan × 100.
	if math.Abs(all[35]-(5+5)*100) > 1e-6 {
		t.Errorf("corner dist = %v", all[35])
	}
	if _, ok := NewEngine(g).Settled(0); ok {
		t.Fatal("a fresh engine reports a settled vertex")
	}
	e.Bounded(0, roadnet.DI, 250)
	for v, want := range all {
		d, ok := e.Settled(roadnet.VertexID(v))
		if ok != (want <= 250) {
			t.Fatalf("vertex %d (d=%v): settled = %v under bound 250", v, want, ok)
		}
		if ok && math.Abs(want-d) > 1e-9 {
			t.Fatalf("bounded cost mismatch at %d: %v vs %v", v, d, want)
		}
	}
}

func TestEngineReuseManyQueries(t *testing.T) {
	g := roadnet.Generate(roadnet.Tiny(4))
	e := NewEngine(g)
	rng := rand.New(rand.NewSource(10))
	n := g.NumVertices()
	for i := 0; i < 300; i++ {
		s := roadnet.VertexID(rng.Intn(n))
		d := roadnet.VertexID(rng.Intn(n))
		p, c, ok := e.Fastest(s, d)
		if !ok {
			continue
		}
		if p[0] != s || p[len(p)-1] != d {
			t.Fatalf("endpoints wrong: %v for (%d,%d)", p, s, d)
		}
		if got := p.Cost(g, roadnet.TT); math.Abs(got-c) > 1e-6 {
			t.Fatalf("reported cost %v != recomputed %v", c, got)
		}
	}
}

func TestPathOptimalityProperty(t *testing.T) {
	// Property: the fastest path's travel time is never above the
	// shortest path's travel time evaluated on the same pair... the
	// reverse inequality holds for distance. (Cross-metric sanity.)
	g := roadnet.Generate(roadnet.Tiny(5))
	e := NewEngine(g)
	rng := rand.New(rand.NewSource(12))
	n := g.NumVertices()
	for i := 0; i < 100; i++ {
		s := roadnet.VertexID(rng.Intn(n))
		d := roadnet.VertexID(rng.Intn(n))
		fp, ft, ok1 := e.Fastest(s, d)
		sp, sd, ok2 := e.Shortest(s, d)
		if !ok1 || !ok2 {
			continue
		}
		if fp.Cost(g, roadnet.TT) > sp.Cost(g, roadnet.TT)+1e-6 {
			t.Fatal("fastest slower than shortest in TT")
		}
		if sp.Cost(g, roadnet.DI) > fp.Cost(g, roadnet.DI)+1e-6 {
			t.Fatal("shortest longer than fastest in DI")
		}
		_ = ft
		_ = sd
	}
}
