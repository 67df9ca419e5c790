package core

import (
	"testing"

	"repro/internal/ch"
	"repro/internal/cluster"
	"repro/internal/region"
	"repro/internal/roadnet"
	"repro/internal/route"
)

// restoreRegions builds a region graph over road from hand-crafted
// regions and edges the way Load does: the partition skeleton, the
// edges set on it, and a round trip through its image, which derives
// the adjacency.
func restoreRegions(t *testing.T, road *roadnet.Graph, regions []cluster.Region, edges []region.Edge) *region.Graph {
	t.Helper()
	g := region.Build(road, regions, nil, region.Options{})
	for i := range edges {
		g.Edges = append(g.Edges, &edges[i])
	}
	rg, err := region.Decode(regionImage(g), road)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return rg
}

// TestRegionSearchDirectEdgeShortcut is the regression test for the
// collapsed direct-edge conditional: when an edge to the destination
// region exists from the search frontier, regionSearch must take it
// immediately, even when a longer multi-hop region path also exists.
func TestRegionSearchDirectEdgeShortcut(t *testing.T) {
	road := roadnet.GenerateGrid(3, 3, 100, roadnet.Residential)
	regions := []cluster.Region{
		{ID: 0, Members: []roadnet.VertexID{0}},
		{ID: 1, Members: []roadnet.VertexID{4}},
		{ID: 2, Members: []roadnet.VertexID{8}},
	}
	chainAndDirect := []region.Edge{
		{ID: 0, R1: 0, R2: 1, Kind: region.TEdge},
		{ID: 1, R1: 1, R2: 2, Kind: region.TEdge},
		{ID: 2, R1: 0, R2: 2, Kind: region.BEdge},
	}
	r := &Router{rg: restoreRegions(t, road, regions, chainAndDirect)}
	got, ok := r.regionSearch(0, 2)
	if !ok || len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("regionSearch(0,2) with direct edge = %v, %v; want [0 2], true", got, ok)
	}

	// Without the direct edge, the chain is the only region path.
	chainOnly := []region.Edge{
		{ID: 0, R1: 0, R2: 1, Kind: region.TEdge},
		{ID: 1, R1: 1, R2: 2, Kind: region.TEdge},
	}
	r = &Router{rg: restoreRegions(t, road, regions, chainOnly)}
	got, ok = r.regionSearch(0, 2)
	if !ok || len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("regionSearch(0,2) without direct edge = %v, %v; want [0 1 2], true", got, ok)
	}

	// Unreachable destination region reports failure.
	if p, ok := (&Router{rg: restoreRegions(t, road, regions, chainOnly[:1])}).regionSearch(0, 2); ok {
		t.Fatalf("regionSearch(0,2) over disconnected region graph = %v, true; want failure", p)
	}
}

// TestMapRegionPathNoTransferCenters is the regression test for the
// tcs[0] guard: a region edge with no stored path toward a memberless
// region (which has no transfer centers) must make mapRegionPath report
// failure instead of panicking.
func TestMapRegionPathNoTransferCenters(t *testing.T) {
	road := roadnet.GenerateGrid(3, 3, 100, roadnet.Residential)
	regions := []cluster.Region{
		{ID: 0, Members: []roadnet.VertexID{0, 1}},
		{ID: 1}, // memberless: no transfer centers possible
	}
	edges := []region.Edge{
		{ID: 0, R1: 0, R2: 1, Kind: region.BEdge}, // no stored paths
	}
	r := &Router{
		road: road,
		rg:   restoreRegions(t, road, regions, edges),
		eng:  route.NewCHEngine(road, ch.BuildTopology(road), roadnet.TT),
	}
	path, ok := r.mapRegionPath([]int{0, 1}, 0, 4)
	if ok || path != nil {
		t.Fatalf("mapRegionPath over memberless region = %v, %v; want nil, false", path, ok)
	}
}
