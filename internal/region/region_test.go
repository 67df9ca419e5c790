package region

import (
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/roadnet"
)

// lineWorld builds a 12-vertex line road network 0–1–…–11 and fabricates
// four regions over it: R0={0,1,2}, R1={4,5}, R2={7,8}, R3={10,11}.
// Vertices 3, 6 and 9 belong to no region.
func lineWorld(t *testing.T) (*roadnet.Graph, []cluster.Region) {
	t.Helper()
	g := roadnet.GenerateGrid(12, 1, 100, roadnet.Secondary)
	regions := []cluster.Region{
		{ID: 0, Members: []roadnet.VertexID{0, 1, 2}, RoadType: roadnet.Secondary},
		{ID: 1, Members: []roadnet.VertexID{4, 5}, RoadType: roadnet.Secondary},
		{ID: 2, Members: []roadnet.VertexID{7, 8}, RoadType: roadnet.Secondary},
		{ID: 3, Members: []roadnet.VertexID{10, 11}, RoadType: roadnet.Secondary},
	}
	return g, regions
}

func TestBuildTEdgesAndTransferCenters(t *testing.T) {
	g, regions := lineWorld(t)
	// One trajectory crosses R0 -> R1 -> R2 (stops at 8).
	paths := []roadnet.Path{{0, 1, 2, 3, 4, 5, 6, 7, 8}}
	rg := Build(g, regions, paths, Options{})

	if rg.RegionOf(0) != 0 || rg.RegionOf(5) != 1 || rg.RegionOf(3) != -1 {
		t.Fatal("RegionOf wrong")
	}

	// T-edges: (0,1), (1,2), (0,2) — m regions give m(m-1)/2 edges.
	for _, pair := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		e := rg.FindEdge(pair[0], pair[1])
		if e == nil {
			t.Fatalf("missing T-edge %v", pair)
		}
		if e.Kind != TEdge {
			t.Fatalf("edge %v kind = %v", pair, e.Kind)
		}
	}
	if rg.TEdgeCount() != 3 {
		t.Fatalf("T-edge count = %d", rg.TEdgeCount())
	}

	// The (0,1) T-edge path runs from where the trajectory left R0 (v2)
	// to where it entered R1 (v4).
	e := rg.FindEdge(0, 1)
	paths01 := e.PathsFrom(0)
	if len(paths01) != 1 {
		t.Fatalf("paths on (0,1): %d", len(paths01))
	}
	want := roadnet.Path{2, 3, 4}
	got := paths01[0].Path
	if len(got) != len(want) {
		t.Fatalf("T-edge path = %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("T-edge path = %v want %v", got, want)
		}
	}
	// No reverse-direction paths exist for this one-way trajectory.
	if len(e.PathsFrom(1)) != 0 {
		t.Fatal("unexpected reverse path")
	}

	// Transfer centers: R0 was entered at 0 and left at 2.
	tc := rg.TransferCenters(0)
	if len(tc) != 2 {
		t.Fatalf("R0 transfer centers = %v", tc)
	}
	// R3 was never visited: falls back to a member vertex.
	tc3 := rg.TransferCenters(3)
	if len(tc3) != 1 || rg.RegionOf(tc3[0]) != 3 {
		t.Fatalf("R3 fallback transfer center = %v", tc3)
	}
}

func TestInnerPaths(t *testing.T) {
	g, regions := lineWorld(t)
	paths := []roadnet.Path{
		{0, 1, 2, 3, 4}, // inner path 0-1-2 in R0
		{0, 1, 2},       // same inner path again
	}
	rg := Build(g, regions, paths, Options{})
	inner := rg.InnerPaths(0)
	if len(inner) != 1 {
		t.Fatalf("inner paths = %d want 1 (deduplicated)", len(inner))
	}
	if inner[0].Count != 2 {
		t.Fatalf("inner count = %d want 2", inner[0].Count)
	}
	if len(inner[0].Path) != 3 || inner[0].Path[0] != 0 || inner[0].Path[2] != 2 {
		t.Fatalf("inner path = %v", inner[0].Path)
	}
}

func TestPathDeduplicationCounts(t *testing.T) {
	g, regions := lineWorld(t)
	paths := []roadnet.Path{
		{0, 1, 2, 3, 4, 5},
		{1, 2, 3, 4},
		{2, 3, 4, 5},
	}
	rg := Build(g, regions, paths, Options{})
	e := rg.FindEdge(0, 1)
	infos := e.PathsFrom(0)
	if len(infos) != 1 {
		t.Fatalf("distinct paths = %d want 1", len(infos))
	}
	if infos[0].Count != 3 {
		t.Fatalf("count = %d want 3", infos[0].Count)
	}

	// Dedup compares contents: an equal path held in another slice
	// counts, one differing in an interior vertex is a path of its own.
	e.addPath(0, roadnet.Path{2, 3, 4}, true, 0, 0)
	if infos = e.PathsFrom(0); len(infos) != 1 || infos[0].Count != 4 || infos[0].Terminal != 4 {
		t.Fatalf("content-equal path: %+v, want one path counted 4, terminal 4", infos)
	}
	e.addPath(0, roadnet.Path{2, 6, 4}, false, 0, 0)
	if infos = e.PathsFrom(0); len(infos) != 2 || infos[1].Count != 1 {
		t.Fatalf("path differing in an interior vertex: %+v, want a second path counted 1", infos)
	}

	// AddPaths copies each trajectory once: the caller's path stays the
	// caller's, and the windows stored from the copy are capped, so an
	// append to one cannot write over the next.
	fresh := Build(g, regions, nil, Options{})
	q := roadnet.Path{0, 1, 2, 3, 4, 5, 6, 7, 8}
	fresh.AddPaths([]roadnet.Path{q}, Options{})
	stored := storedPaths(fresh)
	want := make([]roadnet.Path, len(stored))
	for i, p := range stored {
		want[i] = slices.Clone(p)
	}
	if len(stored) != 6 { // 3 T-edge paths, 3 inner paths
		t.Fatalf("stored %d paths, want 6: %v", len(stored), stored)
	}
	samePaths := func(a, b []roadnet.Path) bool {
		return slices.EqualFunc(a, b, func(x, y roadnet.Path) bool { return slices.Equal(x, y) })
	}
	for i := range q {
		q[i] = 99
	}
	if got := storedPaths(fresh); !samePaths(got, want) {
		t.Fatalf("writing the caller's path changed the stored paths:\ngot  %v\nwant %v", got, want)
	}
	for i, p := range stored {
		_ = append(p, 99)
		if got := storedPaths(fresh); !samePaths(got, want) {
			t.Fatalf("appending to stored path %d changed the stored paths:\ngot  %v\nwant %v", i, got, want)
		}
	}
}

// storedPaths lists the slices g stores: every edge's forward and
// reverse path set, then every region's inner paths.
func storedPaths(g *Graph) []roadnet.Path {
	var out []roadnet.Path
	for _, e := range g.Edges {
		for _, pi := range e.PathsFwd {
			out = append(out, pi.Path)
		}
		for _, pi := range e.PathsRev {
			out = append(out, pi.Path)
		}
	}
	for r := range g.NumRegions() {
		for _, ip := range g.InnerPaths(r) {
			out = append(out, ip.Path)
		}
	}
	return out
}

// checkFindEdge holds FindEdge, asked both ways round, to a linear scan
// of g.Edges for every region pair, pairs no edge joins included.
func checkFindEdge(t *testing.T, g *Graph) {
	t.Helper()
	for a := range g.NumRegions() {
		for b := a; b < g.NumRegions(); b++ {
			var want *Edge
			for _, e := range g.Edges {
				if e.R1 == a && e.R2 == b {
					want = e
				}
			}
			if ab, ba := g.FindEdge(a, b), g.FindEdge(b, a); ab != want || ba != want {
				t.Fatalf("FindEdge(%d, %d) = %p, FindEdge(%d, %d) = %p, the scan finds %p", a, b, ab, b, a, ba, want)
			}
		}
	}
}

func TestConnectBFS(t *testing.T) {
	g, regions := lineWorld(t)
	// Trajectories connect only R0 and R1; R2 and R3 are trajectory-free
	// islands that BFS must wire up.
	paths := []roadnet.Path{{0, 1, 2, 3, 4, 5}}
	rg := Build(g, regions, paths, Options{})
	if rg.Connected() {
		t.Fatal("region graph should be disconnected before BFS")
	}
	created := rg.ConnectBFS()
	if created == 0 {
		t.Fatal("BFS created no B-edges")
	}
	if !rg.Connected() {
		t.Fatal("region graph still disconnected after BFS")
	}
	// The line topology forces B-edges (1,2) and (2,3); BFS must not
	// tunnel from R1 through R2 into R3.
	if e := rg.FindEdge(1, 2); e == nil || e.Kind != BEdge {
		t.Error("missing B-edge (1,2)")
	}
	if e := rg.FindEdge(2, 3); e == nil || e.Kind != BEdge {
		t.Error("missing B-edge (2,3)")
	}
	if e := rg.FindEdge(1, 3); e != nil {
		t.Error("BFS tunneled through R2 to create (1,3)")
	}
	// Existing T-edge must not be downgraded.
	if e := rg.FindEdge(0, 1); e == nil || e.Kind != TEdge {
		t.Error("T-edge (0,1) damaged by BFS")
	}
}

func TestSegmentVisitsSplitsOnGapsAndReentry(t *testing.T) {
	g, regions := lineWorld(t)
	rg := Build(g, regions, nil, Options{})
	// Path leaves R0, crosses gap 3, R1, gap 6, then R2.
	vs := segmentVisits(rg, roadnet.Path{1, 2, 3, 4, 5, 6, 7})
	if len(vs) != 3 {
		t.Fatalf("visits = %+v", vs)
	}
	if vs[0].region != 0 || vs[1].region != 1 || vs[2].region != 2 {
		t.Fatalf("visit regions wrong: %+v", vs)
	}
	if vs[0].entry != 0 || vs[0].exit != 1 {
		t.Fatalf("visit 0 bounds: %+v", vs[0])
	}
}

func TestTopRoadTypes(t *testing.T) {
	g, regions := lineWorld(t)
	rg := Build(g, regions, nil, Options{})
	tt := rg.TopRoadTypes(0)
	if len(tt) == 0 || tt[0] != roadnet.Secondary {
		t.Fatalf("top types = %v", tt)
	}
}

func TestCentroid(t *testing.T) {
	g, regions := lineWorld(t)
	rg := Build(g, regions, nil, Options{})
	c := rg.Centroid(0) // vertices at x=0,100,200
	if c.X != 100 || c.Y != 0 {
		t.Fatalf("centroid = %v", c)
	}
}

func TestMaxRegionSpanLimitsPairs(t *testing.T) {
	g, regions := lineWorld(t)
	paths := []roadnet.Path{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}}
	unlimited := Build(g, regions, paths, Options{})
	if unlimited.TEdgeCount() != 6 { // C(4,2)
		t.Fatalf("unlimited T-edges = %d want 6", unlimited.TEdgeCount())
	}
	capped := Build(g, regions, paths, Options{MaxRegionSpan: 1})
	if capped.TEdgeCount() != 3 { // consecutive pairs only
		t.Fatalf("capped T-edges = %d want 3", capped.TEdgeCount())
	}
}

func TestBidirectionalPathSets(t *testing.T) {
	g, regions := lineWorld(t)
	paths := []roadnet.Path{
		{2, 3, 4},
		{4, 3, 2},
	}
	rg := Build(g, regions, paths, Options{})
	e := rg.FindEdge(0, 1)
	if e == nil {
		t.Fatal("edge missing")
	}
	if len(e.PathsFrom(0)) != 1 || len(e.PathsFrom(1)) != 1 {
		t.Fatalf("directional path sets: fwd=%d rev=%d",
			len(e.PathsFrom(0)), len(e.PathsFrom(1)))
	}
}
