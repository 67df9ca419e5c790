package roadnet

import (
	"math"
	"testing"

	"repro/internal/geo"
)

// buildDiamond creates a 4-vertex diamond used by several tests:
//
//	    1
//	  /   \
//	0       3
//	  \   /
//	    2
//
// with the upper route on motorway edges and the lower on residential.
func buildDiamond(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	v0 := b.AddVertex(geo.Pt(0, 0))
	v1 := b.AddVertex(geo.Pt(500, 400))
	v2 := b.AddVertex(geo.Pt(500, -400))
	v3 := b.AddVertex(geo.Pt(1000, 0))
	b.AddRoad(v0, v1, Motorway)
	b.AddRoad(v1, v3, Motorway)
	b.AddRoad(v0, v2, Residential)
	b.AddRoad(v2, v3, Residential)
	g := b.Build()
	if err := Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g
}

func TestBuilderBasics(t *testing.T) {
	g := buildDiamond(t)
	if g.NumVertices() != 4 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 8 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if len(g.Out(0)) != 2 || len(g.In(3)) != 2 {
		t.Error("adjacency sizes wrong")
	}
	e := g.FindEdge(0, 1)
	if e == NoEdge {
		t.Fatal("edge 0->1 missing")
	}
	ed := g.Edge(e)
	if ed.Type != Motorway {
		t.Errorf("type = %v", ed.Type)
	}
	wantLen := math.Hypot(500, 400)
	if math.Abs(ed.Length-wantLen) > 1e-9 {
		t.Errorf("length = %v want %v", ed.Length, wantLen)
	}
	wantTT := wantLen / (Motorway.DefaultSpeedKmh() / 3.6)
	if math.Abs(ed.TravelTime-wantTT) > 1e-9 {
		t.Errorf("tt = %v want %v", ed.TravelTime, wantTT)
	}
	if ed.Fuel <= 0 {
		t.Error("fuel not positive")
	}
	if g.FindEdge(1, 2) != NoEdge {
		t.Error("phantom edge found")
	}
}

func TestBuilderRejectsDuplicatesAndLoops(t *testing.T) {
	b := NewBuilder()
	v0 := b.AddVertex(geo.Pt(0, 0))
	v1 := b.AddVertex(geo.Pt(100, 0))
	b.AddEdge(v0, v1, Primary)
	b.AddEdge(v0, v1, Residential) // duplicate: ignored
	b.AddEdge(v0, v0, Primary)     // self loop: ignored
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d want 1", g.NumEdges())
	}
	if g.Edge(g.FindEdge(0, 1)).Type != Primary {
		t.Error("first write should win")
	}
}

func TestEdgeWeightAccessors(t *testing.T) {
	g := buildDiamond(t)
	e := g.FindEdge(0, 1)
	ed := g.Edge(e)
	if g.EdgeWeight(e, DI) != ed.Length || g.EdgeWeight(e, TT) != ed.TravelTime || g.EdgeWeight(e, FC) != ed.Fuel {
		t.Error("EdgeWeight mismatch")
	}
}

// TestPathValidRejectsForeignIDs: vertex IDs outside the graph — a path
// of some other network — are an invalid path, not an index panic,
// wherever in the path they sit.
func TestPathValidRejectsForeignIDs(t *testing.T) {
	g := buildDiamond(t)
	n := VertexID(g.NumVertices())
	for _, p := range []Path{{n}, {-1}, {n, 0}, {-1, 0}, {0, n}, {0, -1}, {0, 1, n}, {0, 1, n, 3}} {
		if p.Valid(g) {
			t.Errorf("%v reported valid on a %d-vertex graph", p, n)
		}
	}
}

func TestPathOps(t *testing.T) {
	g := buildDiamond(t)
	p := Path{0, 1, 3}
	if !p.Valid(g) {
		t.Fatal("path should be valid")
	}
	if (Path{0, 3}).Valid(g) {
		t.Error("0-3 direct should be invalid")
	}
	if (Path{}).Valid(g) {
		t.Error("empty path should be invalid")
	}
	wantLen := 2 * math.Hypot(500, 400)
	if math.Abs(p.Length(g)-wantLen) > 1e-9 {
		t.Errorf("path length = %v want %v", p.Length(g), wantLen)
	}
	if c := (Path{0, 3}).Cost(g, DI); !math.IsInf(c, 1) {
		t.Error("disconnected cost should be +Inf")
	}
	// The fused walk is Length and Cost(TT), bit for bit, on every shape
	// of path: a walk, a single vertex, nothing, a non-walk.
	for _, q := range []Path{p, {1, 3}, {2}, {}, {0, 3}, {0, 1, 0, 3}} {
		l, tt := q.Measures(g)
		if math.Float64bits(l) != math.Float64bits(q.Length(g)) || math.Float64bits(tt) != math.Float64bits(q.Cost(g, TT)) {
			t.Errorf("Measures(%v) = %v, %v; Length %v, Cost(TT) %v", q, l, tt, q.Length(g), q.Cost(g, TT))
		}
	}
	pl := p.Polyline(g)
	if len(pl) != 3 || pl[0] != g.Point(0) {
		t.Error("Polyline wrong")
	}
}

func TestConcat(t *testing.T) {
	a := Path{1, 2, 3}
	b := Path{3, 4}
	c := Concat(a, b)
	if len(c) != 4 || c[3] != 4 {
		t.Fatalf("concat = %v", c)
	}
	// Empty pieces skipped.
	if got := Concat(Path{}, a, Path{}, b); len(got) != 4 {
		t.Errorf("concat with empties = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched concat should panic")
		}
	}()
	Concat(a, Path{9, 10})
}

func TestRoadTypeProperties(t *testing.T) {
	last := math.Inf(1)
	for rt := RoadType(0); rt < NumRoadTypes; rt++ {
		s := rt.DefaultSpeedKmh()
		if s <= 0 || s > last {
			t.Errorf("%v speed %v not decreasing", rt, s)
		}
		last = s
		if rt.ExpectedStops() < 0 {
			t.Errorf("%v negative stops", rt)
		}
		if rt.String() == "" {
			t.Errorf("%v empty name", rt)
		}
	}
	if Motorway.ExpectedStops() >= Residential.ExpectedStops() {
		t.Error("residential should stop more than motorway")
	}
}

func TestGenerateGrid(t *testing.T) {
	g := GenerateGrid(4, 3, 100, Tertiary)
	if g.NumVertices() != 12 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	// 4x3 grid: horizontal roads 3*3, vertical 4*2, ×2 directions.
	if g.NumEdges() != (3*3+4*2)*2 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if err := Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateTinyIsSaneAndConnected(t *testing.T) {
	g := Generate(Tiny(7))
	if err := Validate(g); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() < 50 {
		t.Fatalf("tiny network too small: %d vertices", g.NumVertices())
	}
	assertMostlyConnected(t, g, 0.95)
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Tiny(11))
	b := Generate(Tiny(11))
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	for i := 0; i < a.NumEdges(); i++ {
		if a.Edge(EdgeID(i)) != b.Edge(EdgeID(i)) {
			t.Fatalf("edge %d differs", i)
		}
	}
	c := Generate(Tiny(12))
	if c.NumVertices() == a.NumVertices() && c.NumEdges() == a.NumEdges() {
		// Extremely unlikely; counts differing is the cheap signal.
		t.Log("different seeds produced same shape (suspicious but not fatal)")
	}
}

func TestGenerateConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("network generation in -short mode")
	}
	for name, cfg := range map[string]GenConfig{"N1Like": N1Like(1), "N2Like": N2Like(1)} {
		g := Generate(cfg)
		if err := Validate(g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.NumVertices() < 1000 {
			t.Errorf("%s: only %d vertices", name, g.NumVertices())
		}
		assertMostlyConnected(t, g, 0.95)
		// Road-type variety: the hierarchy must be present.
		var seen [NumRoadTypes]bool
		for i := 0; i < g.NumEdges(); i++ {
			seen[g.Edge(EdgeID(i)).Type] = true
		}
		for rt := RoadType(0); rt < NumRoadTypes; rt++ {
			if !seen[rt] && rt != Motorway { // tiny maps may lack motorways
				t.Errorf("%s: road type %v absent", name, rt)
			}
		}
	}
}

// assertMostlyConnected checks that a large fraction of vertices lies in
// one weakly connected component.
func assertMostlyConnected(t *testing.T, g *Graph, minFrac float64) {
	t.Helper()
	n := g.NumVertices()
	seen := make([]bool, n)
	stack := []VertexID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Out(v) {
			if w := g.Edge(e).To; !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
		for _, e := range g.In(v) {
			if w := g.Edge(e).From; !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	if frac := float64(count) / float64(n); frac < minFrac {
		t.Errorf("largest component covers %.2f%% of vertices", 100*frac)
	}
}
