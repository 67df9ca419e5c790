package region

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/roadnet"
)

// Snapshot is the serializable image of a region graph. All fields are
// exported for gob; trajectory-derived state (path sets, inner paths,
// transfer centers) is carried verbatim because it cannot be recomputed
// without the original trajectories.
type Snapshot struct {
	Regions         []cluster.Region
	Edges           []Edge
	Centroids       []geo.Point
	Inner           [][]InnerPath
	TransferCenters [][]roadnet.VertexID
	// TCCounts carries the visit counts behind TransferCenters so a
	// restored graph keeps recounting exactly on incremental ingestion.
	// Every image carries them; Restore fills a nil TCCounts (a
	// hand-built snapshot) with empty maps.
	TCCounts []map[roadnet.VertexID]int
	TopTypes [][]roadnet.RoadType
}

// Snapshot captures the graph's full state for persistence.
func (g *Graph) Snapshot() *Snapshot {
	s := &Snapshot{
		Regions:         g.Regions,
		Edges:           make([]Edge, len(g.Edges)),
		Centroids:       g.centroids,
		Inner:           g.inner,
		TransferCenters: g.transferCenters,
		TCCounts:        g.tcCounts,
		TopTypes:        g.topTypes,
	}
	for i, e := range g.Edges {
		s.Edges[i] = *e
	}
	return s
}

// Restore reconstructs a region graph over road from a snapshot,
// rebuilding what the graph derives (the vertex→region map and the
// sorted adjacency); the graph takes s over, its edges being s.Edges'
// elements. A snapshot is outside input — an artifact read from disk —
// so every ID in it is checked before anything indexes with it:
// vertices against the road, regions against the region count, edge
// kinds, road types and preferences against their ranges, and each
// edge's pair is R1 < R2 and joined by no other edge.
func Restore(road *roadnet.Graph, s *Snapshot) (*Graph, error) {
	n, regions := road.NumVertices(), len(s.Regions)
	g := &Graph{
		Road:            road,
		Regions:         s.Regions,
		centroids:       s.Centroids,
		inner:           s.Inner,
		transferCenters: s.TransferCenters,
		tcCounts:        s.TCCounts,
		topTypes:        s.TopTypes,
	}
	// Optional slices may be absent in minimal snapshots; normalize to
	// per-region length so accessors stay in bounds.
	if g.inner == nil {
		g.inner = make([][]InnerPath, regions)
	}
	if g.transferCenters == nil {
		g.transferCenters = make([][]roadnet.VertexID, regions)
	}
	if g.topTypes == nil {
		g.topTypes = make([][]roadnet.RoadType, regions)
	}
	if g.tcCounts == nil {
		g.tcCounts = make([]map[roadnet.VertexID]int, regions)
		for i := range g.tcCounts {
			g.tcCounts[i] = make(map[roadnet.VertexID]int)
		}
	}
	if len(s.Centroids) != regions || len(g.inner) != regions || len(g.transferCenters) != regions ||
		len(g.topTypes) != regions || len(g.tcCounts) != regions {
		return nil, fmt.Errorf("region: snapshot per-region slices disagree with its %d regions", regions)
	}
	offRoad := func(p []roadnet.VertexID) bool {
		for _, v := range p {
			if v < 0 || int(v) >= n {
				return true
			}
		}
		return false
	}
	g.regionOf = make([]int32, n)
	for i := range g.regionOf {
		g.regionOf[i] = -1
	}
	for i, r := range s.Regions {
		bad := r.ID != i || r.RoadType >= roadnet.NumRoadTypes || offRoad(r.Members) || offRoad(g.transferCenters[i])
		for _, ip := range g.inner[i] {
			bad = bad || offRoad(ip.Path)
		}
		for _, t := range g.topTypes[i] {
			bad = bad || t >= roadnet.NumRoadTypes
		}
		for v := range g.tcCounts[i] {
			bad = bad || v < 0 || int(v) >= n
		}
		if bad {
			return nil, fmt.Errorf("region: snapshot region %d carries an ID, a vertex or a road type out of range", i)
		}
		for _, v := range r.Members {
			g.regionOf[v] = int32(i)
		}
	}
	g.adj = make([][]Link, regions)
	g.Edges = make([]*Edge, len(s.Edges))
	for i := range s.Edges {
		e := &s.Edges[i]
		bad := e.ID != i || e.R1 < 0 || e.R1 >= e.R2 || e.R2 >= regions || e.Kind > BEdge || e.HasPref && !e.Pref.Valid()
		for _, set := range [2][]PathInfo{e.PathsFwd, e.PathsRev} {
			for _, pi := range set {
				bad = bad || offRoad(pi.Path)
			}
		}
		if bad {
			return nil, fmt.Errorf("region: snapshot edge %d carries an ID, a vertex, a kind or a preference out of range, or a region pair not ordered R1 < R2", i)
		}
		g.Edges[i] = e
		g.adj[e.R1] = append(g.adj[e.R1], Link{int32(e.R2), int32(i)})
		g.adj[e.R2] = append(g.adj[e.R2], Link{int32(e.R1), int32(i)})
	}
	// Canonical adjacency order (neighbor region ID, matching insertAdj)
	// so a restored graph traverses neighbors exactly as the graph that
	// produced the snapshot did, and FindEdge can search it. A region
	// pair carries one edge, so neighbors must not repeat.
	for _, a := range g.adj {
		slices.SortFunc(a, func(x, y Link) int { return int(x.To - y.To) })
		for i := 1; i < len(a); i++ {
			if a[i].To == a[i-1].To {
				return nil, fmt.Errorf("region: snapshot edges %d and %d join the same regions", a[i-1].Edge, a[i].Edge)
			}
		}
	}
	return g, nil
}
