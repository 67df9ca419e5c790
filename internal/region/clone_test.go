package region

import (
	"maps"
	"testing"

	"repro/internal/pref"
	"repro/internal/roadnet"
)

// Clone returns a deep copy of the region graph: the eager reference
// CloneCOW's privatize-on-write is held to (TestCloneCOWChainedGenerations).
// Nothing outside the tests copies a region graph this way.
//
// Structures that incremental updates mutate — edges and their path
// sets, inner-region paths, transfer-center lists, adjacency — are
// copied. Structures that stay fixed after Build — the
// road network, the region partition and member lists, the
// vertex→region map, centroids, and road-type sets — are shared.
// Stored Path vertex slices and the trip table they are windows of are
// also shared: updates append fresh PathInfo/InnerPath entries, bump
// their counters or add trip batches, but never edit a stored vertex
// sequence or batch in place.
func (g *Graph) Clone() *Graph {
	cp := &Graph{
		Road:      g.Road,
		Regions:   g.Regions,
		regionOf:  g.regionOf,
		centroids: g.centroids,
		topTypes:  g.topTypes,
		trips:     g.trips,
	}

	cp.Edges = make([]*Edge, len(g.Edges))
	for i, e := range g.Edges {
		ne := &Edge{
			ID:      e.ID,
			R1:      e.R1,
			R2:      e.R2,
			Kind:    e.Kind,
			Pref:    e.Pref,
			HasPref: e.HasPref,
			fit:     e.fit,
			fitted:  e.fitted,
		}
		if len(e.PathsFwd) > 0 {
			ne.PathsFwd = append([]PathInfo(nil), e.PathsFwd...)
		}
		if len(e.PathsRev) > 0 {
			ne.PathsRev = append([]PathInfo(nil), e.PathsRev...)
		}
		cp.Edges[i] = ne
	}

	cp.adj = make([][]Link, len(g.adj))
	for i, a := range g.adj {
		if len(a) > 0 {
			cp.adj[i] = append([]Link(nil), a...)
		}
	}

	cp.inner = make([][]InnerPath, len(g.inner))
	for i, ips := range g.inner {
		if len(ips) > 0 {
			cp.inner[i] = append([]InnerPath(nil), ips...)
		}
	}
	cp.transferCenters = make([][]roadnet.VertexID, len(g.transferCenters))
	for i, tc := range g.transferCenters {
		if len(tc) > 0 {
			cp.transferCenters[i] = append([]roadnet.VertexID(nil), tc...)
		}
	}
	cp.tcCounts = make([]map[roadnet.VertexID]int, len(g.tcCounts))
	for i, m := range g.tcCounts {
		cp.tcCounts[i] = maps.Clone(m)
	}
	return cp
}

// cloneWorld builds the lineWorld graph with trajectories crossing
// R0 -> R1 in both directions, then wires the rest with B-edges.
func cloneWorld(t *testing.T) (*Graph, []roadnet.Path) {
	t.Helper()
	road, regions := lineWorld(t)
	paths := []roadnet.Path{
		{0, 1, 2, 3, 4, 5},
		{0, 1, 2, 3, 4, 5},
		{5, 4, 3, 2, 1, 0},
	}
	g := Build(road, regions, paths, Options{})
	g.ConnectBFS()
	// Every T-edge carries a fit and applies it, as after core's derive.
	for _, e := range g.Edges {
		if e.Kind == TEdge {
			e.SetFit(pref.Result{Preference: pref.Preference{Master: roadnet.TT}, Similarity: 0.9, PathsUsed: len(e.PathsFwd) + len(e.PathsRev)}, true)
			e.Pref, e.HasPref = pref.Preference{Master: roadnet.TT}, true
		}
	}
	return g, paths
}

func TestCloneIsDeep(t *testing.T) {
	g, _ := cloneWorld(t)
	cp := g.Clone()

	// Snapshot the original's observable state.
	origEdges := len(g.Edges)
	var origCounts []int
	for _, e := range g.Edges {
		for _, pi := range e.PathsFwd {
			origCounts = append(origCounts, int(pi.Count))
		}
	}
	origInner := make([]int, g.NumRegions())
	for r := 0; r < g.NumRegions(); r++ {
		for _, ip := range g.InnerPaths(r) {
			origInner[r] += int(ip.Count)
		}
	}

	// Mutate the clone: re-add a known path (bumps counters) plus a
	// distinct one between the same regions (appends entries).
	newPaths := []roadnet.Path{
		{0, 1, 2, 3, 4, 5},
		{1, 2, 3, 4, 5},
	}
	cp.AddPaths(newPaths, Options{})

	if len(g.Edges) != origEdges {
		t.Fatalf("original edge count changed: %d -> %d", origEdges, len(g.Edges))
	}
	var counts []int
	for _, e := range g.Edges {
		for _, pi := range e.PathsFwd {
			counts = append(counts, int(pi.Count))
		}
	}
	if len(counts) != len(origCounts) {
		t.Fatalf("original path-set size changed: %d -> %d", len(origCounts), len(counts))
	}
	for i := range counts {
		if counts[i] != origCounts[i] {
			t.Fatalf("original path count %d changed: %d -> %d", i, origCounts[i], counts[i])
		}
	}
	for r := 0; r < g.NumRegions(); r++ {
		got := 0
		for _, ip := range g.InnerPaths(r) {
			got += int(ip.Count)
		}
		if got != origInner[r] {
			t.Fatalf("original inner paths of region %d changed: %d -> %d", r, origInner[r], got)
		}
	}

	// And the clone did absorb the update.
	cpTotal, gTotal := 0, 0
	for _, e := range cp.Edges {
		for _, pi := range append(e.PathsFwd, e.PathsRev...) {
			cpTotal += int(pi.Count)
		}
	}
	for _, e := range g.Edges {
		for _, pi := range append(e.PathsFwd, e.PathsRev...) {
			gTotal += int(pi.Count)
		}
	}
	if cpTotal <= gTotal {
		t.Fatalf("clone did not absorb update: clone total %d, original %d", cpTotal, gTotal)
	}
}

func TestCloneAnswersLikeOriginal(t *testing.T) {
	g, _ := cloneWorld(t)
	cp := g.Clone()
	if cp.NumRegions() != g.NumRegions() {
		t.Fatalf("region count: got %d want %d", cp.NumRegions(), g.NumRegions())
	}
	for v := 0; v < g.Road.NumVertices(); v++ {
		if cp.RegionOf(roadnet.VertexID(v)) != g.RegionOf(roadnet.VertexID(v)) {
			t.Fatalf("RegionOf(%d) differs", v)
		}
	}
	for r1 := 0; r1 < g.NumRegions(); r1++ {
		for r2 := r1 + 1; r2 < g.NumRegions(); r2++ {
			ge, ce := g.FindEdge(r1, r2), cp.FindEdge(r1, r2)
			if (ge == nil) != (ce == nil) {
				t.Fatalf("FindEdge(%d,%d) presence differs", r1, r2)
			}
			if ge == nil {
				continue
			}
			if ge.Kind != ce.Kind || len(ge.PathsFwd) != len(ce.PathsFwd) || len(ge.PathsRev) != len(ce.PathsRev) {
				t.Fatalf("edge (%d,%d) differs after clone", r1, r2)
			}
		}
	}
	for r := 0; r < g.NumRegions(); r++ {
		gt, ct := g.TransferCenters(r), cp.TransferCenters(r)
		if len(gt) != len(ct) {
			t.Fatalf("transfer centers of region %d differ", r)
		}
	}
}
