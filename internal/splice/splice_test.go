package splice

import (
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// figure1Paths reproduces the paper's Figure 1 trajectory set over a
// line-digestible toy graph. Vertices: 0=A 1=J 2=X 3=Y 4=B3 5=B 6=D
// 7=Z 8=C 9=E 10=F2 11=F 12=G 13=H 14=K 15=F1.
func figure1Graph() (*roadnet.Graph, []roadnet.Path) {
	b := roadnet.NewBuilder()
	for i := 0; i < 16; i++ {
		b.AddVertex(pointFor(i))
	}
	edges := [][2]roadnet.VertexID{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, // T1: A J X Y B3 B
		{6, 2}, {2, 7}, {7, 8}, // T2: D X Z C
		{9, 7}, {7, 10}, {10, 11}, // T3: E Z F2 F
		{12, 13},                            // T4: G H
		{6, 14}, {14, 3}, {3, 15}, {15, 11}, // T5: D K Y F1 F
	}
	for _, e := range edges {
		b.AddRoad(e[0], e[1], roadnet.Tertiary)
	}
	g := b.Build()
	paths := []roadnet.Path{
		{0, 1, 2, 3, 4, 5},
		{6, 2, 7, 8},
		{9, 7, 10, 11},
		{12, 13},
		{6, 14, 3, 15, 11},
	}
	return g, paths
}

func pointFor(i int) geo.Point {
	return geo.Point{X: float64(i%4) * 200, Y: float64(i/4) * 200}
}

func TestTransitionGraphCounts(t *testing.T) {
	g, paths := figure1Graph()
	tg := NewTransitionGraph(g, paths)
	if tg.NumVertices() != 16 {
		t.Fatalf("NumVertices = %d, want 16", tg.NumVertices())
	}
	// X (2) is left twice: to Y (once, T1) and to Z (once, T2).
	if p := tg.Prob(2, 3); math.Abs(p-0.5) > 1e-12 {
		t.Fatalf("Prob(X,Y) = %g, want 0.5", p)
	}
	if p := tg.Prob(2, 7); math.Abs(p-0.5) > 1e-12 {
		t.Fatalf("Prob(X,Z) = %g, want 0.5", p)
	}
	if p := tg.Prob(3, 2); p != 0 {
		t.Fatalf("Prob(Y,X) = %g, want 0 (never traversed backwards)", p)
	}
}

// TestCase1DirectPath: a complete trajectory connects A to B; splicing
// must return exactly that path.
func TestCase1DirectPath(t *testing.T) {
	g, paths := figure1Graph()
	tg := NewTransitionGraph(g, paths)
	p, ok := tg.Route(0, 5) // A -> B
	if !ok {
		t.Fatal("no route A->B")
	}
	want := roadnet.Path{0, 1, 2, 3, 4, 5}
	if len(p) != len(want) {
		t.Fatalf("route = %v, want %v", p, want)
	}
	for i := range p {
		if p[i] != want[i] {
			t.Fatalf("route = %v, want %v", p, want)
		}
	}
}

// TestCase2SplicedPath: the paper's example — A to F needs splicing
// T1/T2/T3 or T1/T5. A spliced route must exist and be connected.
func TestCase2SplicedPath(t *testing.T) {
	g, paths := figure1Graph()
	tg := NewTransitionGraph(g, paths)
	p, ok := tg.Route(0, 11) // A -> F
	if !ok {
		t.Fatal("no spliced route A->F; splicing is broken")
	}
	if p[0] != 0 || p[len(p)-1] != 11 {
		t.Fatalf("route endpoints %v", p)
	}
	if !p.Valid(g) {
		t.Fatalf("spliced route %v not connected in road graph", p)
	}
}

// TestCase3Fails: the paper's motivating failure — G/H (region R3) is
// an island in the transfer network, so H -> F has no spliced route.
func TestCase3Fails(t *testing.T) {
	g, paths := figure1Graph()
	tg := NewTransitionGraph(g, paths)
	if _, ok := tg.Route(13, 11); ok { // H -> F
		t.Fatal("splicing claimed a route for the paper's Case-3 pair H->F")
	}
	// Uncovered endpoints fail too.
	if _, ok := tg.Route(0, 15); !ok {
		// F1 is covered (T5), so this should actually succeed.
		t.Fatal("A->F1 should be spliceable via T1/T5")
	}
}

func TestRouteSameVertex(t *testing.T) {
	g, paths := figure1Graph()
	tg := NewTransitionGraph(g, paths)
	p, ok := tg.Route(2, 2)
	if !ok || len(p) != 1 || p[0] != 2 {
		t.Fatalf("Route(X,X) = %v, %v", p, ok)
	}
}

func TestAbsorptionProperties(t *testing.T) {
	g, paths := figure1Graph()
	tg := NewTransitionGraph(g, paths)
	ab := tg.Absorption(11, 1e-10, 500) // dest F
	for i, v := range ab {
		if v < -1e-12 || v > 1+1e-12 {
			t.Fatalf("absorption[%d] = %g outside [0,1]", i, v)
		}
	}
	// Destination absorbs with probability 1.
	di := tg.index[11]
	if math.Abs(ab[di]-1) > 1e-12 {
		t.Fatalf("absorption at dest = %g, want 1", ab[di])
	}
	// The island G (12) can never reach F.
	if gi, ok := tg.index[12]; ok && ab[gi] != 0 {
		t.Fatalf("absorption at island G = %g, want 0", ab[gi])
	}
	// F1 (15) deterministically steps to F: absorption 1.
	fi := tg.index[15]
	if math.Abs(ab[fi]-1) > 1e-9 {
		t.Fatalf("absorption at F1 = %g, want 1", ab[fi])
	}
}

func TestAbsorptionUncoveredDest(t *testing.T) {
	g, paths := figure1Graph()
	tg := NewTransitionGraph(g, paths)
	// Vertex 15 exists; invent a fake uncovered one via an empty graph.
	empty := NewTransitionGraph(g, nil)
	ab := empty.Absorption(11, 1e-9, 10)
	if len(ab) != 0 {
		t.Fatalf("absorption over empty transfer network has length %d", len(ab))
	}
	_ = tg
}

// TestMPRAlgorithm exercises the baseline.Algorithm adapter on a
// simulated world, checking Case-3 queries return nil.
func TestMPRAlgorithm(t *testing.T) {
	g := roadnet.Generate(roadnet.Tiny(31))
	sim := traj.NewSimulator(g, traj.D2Like(31, 200))
	ts := sim.Run()
	if len(ts) < 10 {
		t.Fatal("simulator produced too few trajectories")
	}
	train, test := traj.Split(ts, 0.75*86_400*28)
	m := NewMPR(g, train)
	if m.Name() != "MPR" {
		t.Fatalf("Name = %q", m.Name())
	}
	served, failed := 0, 0
	for _, tr := range test {
		p := m.Route(baseline.Query{S: tr.Source(), D: tr.Destination()})
		if p == nil {
			failed++
			continue
		}
		served++
		if !p.Valid(g) {
			t.Fatalf("MPR returned invalid path %v", p)
		}
		if p[0] != tr.Source() || p[len(p)-1] != tr.Destination() {
			t.Fatal("MPR path endpoints mismatch")
		}
	}
	if served+failed == 0 {
		t.Fatal("no test queries")
	}
	t.Logf("MPR served %d, failed %d of %d queries", served, failed, served+failed)
}

// TestMostProbableBeatsLessProbable: with two candidate continuations,
// the heavier-traffic one must be chosen.
func TestMostProbableBeatsLessProbable(t *testing.T) {
	b := roadnet.NewBuilder()
	for i := 0; i < 5; i++ {
		b.AddVertex(pointFor(i))
	}
	// 0 -> 1 -> 3 (popular) and 0 -> 2 -> 3 (rare); 3 -> 4.
	for _, e := range [][2]roadnet.VertexID{{0, 1}, {1, 3}, {0, 2}, {2, 3}, {3, 4}} {
		b.AddRoad(e[0], e[1], roadnet.Residential)
	}
	g := b.Build()
	var paths []roadnet.Path
	for i := 0; i < 9; i++ {
		paths = append(paths, roadnet.Path{0, 1, 3, 4})
	}
	paths = append(paths, roadnet.Path{0, 2, 3, 4})
	tg := NewTransitionGraph(g, paths)
	p, ok := tg.Route(0, 4)
	if !ok {
		t.Fatal("no route")
	}
	if len(p) != 4 || p[1] != 1 {
		t.Fatalf("route = %v, want the popular branch through 1", p)
	}
}
