package cluster

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// fig4Net builds a road network reproducing the structure of the paper's
// Fig. 3/4 example: a popular type-1 backbone D–X–Y–K, two unpopular
// type-2 spurs Y–B3 and Y–F1, and a distant type-1 chain that supplies
// enough total popularity S for the modularity gains to behave like the
// paper's example (ΔQ(Y,X) > 0, spurs separated by road type).
func fig4Net(t *testing.T) (*roadnet.Graph, []roadnet.Path, map[string]roadnet.VertexID) {
	t.Helper()
	b := roadnet.NewBuilder()
	v := map[string]roadnet.VertexID{}
	add := func(name string, x, y float64) {
		v[name] = b.AddVertex(geo.Pt(x, y))
	}
	add("D", 0, 0)
	add("X", 100, 0)
	add("Y", 200, 0)
	add("K", 300, 0)
	add("B3", 200, 100)
	add("F1", 200, -100)
	b.AddRoad(v["D"], v["X"], roadnet.Primary)
	b.AddRoad(v["X"], v["Y"], roadnet.Primary)
	b.AddRoad(v["Y"], v["K"], roadnet.Primary)
	b.AddRoad(v["Y"], v["B3"], roadnet.Residential)
	b.AddRoad(v["Y"], v["F1"], roadnet.Residential)
	// Distant chain boosting S.
	chain := make([]roadnet.VertexID, 21)
	for i := range chain {
		chain[i] = b.AddVertex(geo.Pt(float64(i)*100, 5000))
		if i > 0 {
			b.AddRoad(chain[i-1], chain[i], roadnet.Primary)
		}
	}
	g := b.Build()

	var paths []roadnet.Path
	backbone := roadnet.Path{v["D"], v["X"], v["Y"], v["K"]}
	for i := 0; i < 100; i++ {
		paths = append(paths, backbone)
	}
	spur := roadnet.Path{v["B3"], v["Y"], v["F1"]}
	for i := 0; i < 5; i++ {
		paths = append(paths, spur)
	}
	chainPath := make(roadnet.Path, len(chain))
	copy(chainPath, chain)
	for i := 0; i < 100; i++ {
		paths = append(paths, chainPath)
	}
	return g, paths, v
}

func TestTrajectoryGraphCounts(t *testing.T) {
	g, paths, v := fig4Net(t)
	tg := BuildTrajectoryGraph(g, paths)
	if got := tg.EdgePopularity(v["X"], v["Y"]); got != 100 {
		t.Errorf("s(X,Y) = %v want 100", got)
	}
	if got := tg.EdgePopularity(v["Y"], v["B3"]); got != 5 {
		t.Errorf("s(Y,B3) = %v want 5", got)
	}
	if got := tg.VertexPopularity(v["Y"]); got != 100+100+5+5 {
		t.Errorf("S(Y) = %v want 210", got)
	}
	// Unvisited road vertices are absent.
	if tg.Contains(roadnet.VertexID(g.NumVertices() - 1)) {
		// chain end is visited; pick something truly unvisited? All are
		// visited here, so check a fabricated absence instead:
		_ = 0
	}
	if got := tg.TotalPopularity(); got != 100*3+5*2+100*20 {
		t.Errorf("S = %v", got)
	}
	if tg.NumEdges() != 5+20 {
		t.Errorf("edges = %d", tg.NumEdges())
	}
}

func regionOf(regions []Region, v roadnet.VertexID) *Region {
	for i := range regions {
		for _, m := range regions[i].Members {
			if m == v {
				return &regions[i]
			}
		}
	}
	return nil
}

func TestClusterFig4Example(t *testing.T) {
	g, paths, v := fig4Net(t)
	tg := BuildTrajectoryGraph(g, paths)
	regions := Cluster(tg)

	// The popular type-1 backbone D,X,Y,K must form one region.
	ry := regionOf(regions, v["Y"])
	if ry == nil {
		t.Fatal("Y not in any region")
	}
	members := map[roadnet.VertexID]bool{}
	for _, m := range ry.Members {
		members[m] = true
	}
	for _, name := range []string{"D", "X", "K"} {
		if !members[v[name]] {
			t.Errorf("%s not merged with Y (members %v)", name, ry.Members)
		}
	}
	// The type-2 spurs must NOT be in Y's region.
	for _, name := range []string{"B3", "F1"} {
		if members[v[name]] {
			t.Errorf("%s wrongly merged across road types", name)
		}
		if r := regionOf(regions, v[name]); r == nil {
			t.Errorf("%s missing from all regions", name)
		}
	}
	if ry.RoadType != roadnet.Primary {
		t.Errorf("backbone region type = %v", ry.RoadType)
	}
	// Every trajectory-graph vertex belongs to exactly one region.
	seen := map[roadnet.VertexID]int{}
	for _, r := range regions {
		for _, m := range r.Members {
			seen[m]++
		}
	}
	for i := 0; i < tg.NumVertices(); i++ {
		if seen[tg.Vertex(i)] != 1 {
			t.Fatalf("vertex %d appears in %d regions", tg.Vertex(i), seen[tg.Vertex(i)])
		}
	}
}

func TestClusterDeterministic(t *testing.T) {
	g, paths, _ := fig4Net(t)
	a := Cluster(BuildTrajectoryGraph(g, paths))
	b := Cluster(BuildTrajectoryGraph(g, paths))
	if len(a) != len(b) {
		t.Fatalf("region counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i].Members) != len(b[i].Members) {
			t.Fatalf("region %d sizes differ", i)
		}
		for j := range a[i].Members {
			if a[i].Members[j] != b[i].Members[j] {
				t.Fatalf("region %d member %d differs", i, j)
			}
		}
	}
}

func TestClusterEmptyGraph(t *testing.T) {
	g := roadnet.GenerateGrid(2, 2, 100, roadnet.Primary)
	tg := BuildTrajectoryGraph(g, nil)
	if regions := Cluster(tg); len(regions) != 0 {
		t.Fatalf("empty trajectory graph produced %d regions", len(regions))
	}
}

func TestClusterSingleEdge(t *testing.T) {
	g := roadnet.GenerateGrid(2, 1, 100, roadnet.Primary)
	tg := BuildTrajectoryGraph(g, []roadnet.Path{{0, 1}})
	regions := Cluster(tg)
	total := 0
	for _, r := range regions {
		total += len(r.Members)
	}
	if total != 2 {
		t.Fatalf("expected both vertices covered, got %d", total)
	}
}

func TestClusterModularityPositiveOnRealisticData(t *testing.T) {
	g := roadnet.Generate(roadnet.Tiny(13))
	sim := traj.NewSimulator(g, traj.D2Like(13, 150))
	ts := sim.Run()
	paths := make([]roadnet.Path, len(ts))
	for i, tr := range ts {
		paths[i] = tr.Truth
	}
	tg := BuildTrajectoryGraph(g, paths)
	regions := Cluster(tg)
	if len(regions) < 2 {
		t.Fatalf("degenerate clustering: %d regions", len(regions))
	}
	q := Modularity(tg, regions)
	if q <= 0 {
		t.Errorf("modularity %v not positive", q)
	}
	// Multi-vertex regions should exist (the method must actually merge).
	multi := 0
	for _, r := range regions {
		if len(r.Members) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no multi-vertex regions formed")
	}
}

func TestRegionInternalTypeConsistency(t *testing.T) {
	// Property: inside any multi-vertex region produced with the
	// road-type constraint, the trajectory-graph edges between members
	// share the region's road type.
	g, paths, _ := fig4Net(t)
	tg := BuildTrajectoryGraph(g, paths)
	regions := Cluster(tg)
	for _, r := range regions {
		if len(r.Members) < 2 {
			continue
		}
		inRegion := map[roadnet.VertexID]bool{}
		for _, m := range r.Members {
			inRegion[m] = true
		}
		for _, u := range r.Members {
			for _, w := range r.Members {
				if u >= w {
					continue
				}
				e := g.FindEdge(u, w)
				if e == roadnet.NoEdge {
					continue
				}
				if tg.EdgePopularity(u, w) == 0 {
					continue
				}
				if got := g.Edge(e).Type; got != r.RoadType {
					t.Errorf("region %d (type %v) contains internal edge of type %v", r.ID, r.RoadType, got)
				}
			}
		}
	}
}
