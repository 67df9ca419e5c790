package region

import (
	"cmp"
	"slices"

	"repro/internal/roadnet"
)

// This file is how trajectories enter a region graph — the first time
// (Build is the empty partition skeleton plus one AddPaths over the
// training set) and every time after. The paper names "real-time region
// graph updates when receiving new trajectories" as future work
// (Section VIII); the supported increment keeps the clustering fixed
// and updates everything derived from trajectories — T-edge path sets,
// inner-region paths, transfer centers, and B-edge → T-edge upgrades —
// while reporting how much of the new data fell outside existing
// regions (the signal that a full re-clustering is due). Because there
// is one loop, a graph maintained batch by batch holds, by
// construction, what a build over the union evidence holds (edge IDs
// aside: they record discovery order).

// UpdateStats summarizes one incremental ingestion.
type UpdateStats struct {
	// Paths is the number of trajectory paths processed.
	Paths int
	// UpgradedEdges counts B-edges that received their first real
	// trajectory path and became T-edges.
	UpgradedEdges int
	// NewEdges counts region pairs newly connected by trajectories.
	NewEdges int
	// TouchedEdges lists the IDs of all region edges whose path sets
	// changed; callers re-learn preferences for exactly these.
	TouchedEdges []int
	// OutOfRegionVertices counts path vertices that belong to no
	// region. A high ratio to TotalVertices means the fixed clustering
	// no longer covers the traffic and a rebuild is warranted.
	OutOfRegionVertices int
	// TotalVertices is the total number of path vertices seen.
	TotalVertices int
}

// StalenessRatio returns the fraction of new-path vertices not covered
// by any region (0 when nothing was ingested).
func (s UpdateStats) StalenessRatio() float64 {
	if s.TotalVertices == 0 {
		return 0
	}
	return float64(s.OutOfRegionVertices) / float64(s.TotalVertices)
}

// AddPaths ingests trajectory paths into the region graph, keeping the
// region partition fixed. Options mirror the ones used at build time;
// pass the same values for consistent behaviour.
//
// The batch is copied once, into one new batch of the graph's trip
// table, and every inner path and T-edge path stored from a trajectory
// is a window p[a:b:b] of its trip. The capped capacity makes an append
// to a stored path, or to a route answered from one, reallocate instead
// of writing over the window next to it.
func (g *Graph) AddPaths(paths []roadnet.Path, opt Options) UpdateStats {
	var st UpdateStats
	st.Paths = len(paths)
	touched := make(map[int]bool)
	dirtyTC := make(map[int]bool)

	trips := g.addTrips(paths)
	for k := range paths {
		p, trip := trips.trip(k), trips.first+int32(k)
		for _, v := range p {
			st.TotalVertices++
			if g.RegionOf(v) < 0 {
				st.OutOfRegionVertices++
			}
		}
		visits := segmentVisits(g, p)
		for _, vis := range visits {
			entryV, exitV := p[vis.entry], p[vis.exit]
			g.bumpTransferCenter(vis.region, entryV, dirtyTC)
			if exitV != entryV {
				g.bumpTransferCenter(vis.region, exitV, dirtyTC)
			}
			if vis.exit > vis.entry {
				g.addInner(vis.region, p[vis.entry:vis.exit+1:vis.exit+1], vis.entry == 0 && vis.exit == len(p)-1, trip, int32(vis.entry))
			}
		}
		for i := 0; i < len(visits); i++ {
			limit := len(visits)
			if opt.MaxRegionSpan > 0 && i+1+opt.MaxRegionSpan < limit {
				limit = i + 1 + opt.MaxRegionSpan
			}
			for j := i + 1; j < limit; j++ {
				ri, rj := visits[i].region, visits[j].region
				if ri == rj {
					continue
				}
				existing := g.FindEdge(ri, rj)
				wasB := existing != nil && existing.Kind == BEdge
				isNew := existing == nil
				e := g.edge(ri, rj, TEdge)
				if e.Kind == BEdge {
					// Upgrade: the first trajectory evidence replaces
					// the transferred preference and materialized
					// paths with real data.
					e.Kind = TEdge
					e.PathsFwd = nil
					e.PathsRev = nil
					e.HasPref = false
				}
				// Visits are disjoint, so the window holds at least the
				// exit and the entry vertex.
				end := visits[j].entry + 1
				e.addPath(ri, p[visits[i].exit:end:end], i == 0 && j == len(visits)-1, trip, int32(visits[i].exit))
				if id := int(e.ID); !touched[id] {
					touched[id] = true
					st.TouchedEdges = append(st.TouchedEdges, id)
					if wasB {
						st.UpgradedEdges++
					}
					if isNew {
						st.NewEdges++
					}
				}
			}
		}
	}
	// Re-materialize the transfer-center lists of every region whose
	// counts moved, once per batch rather than per bump.
	for r := range dirtyTC {
		g.rebuildTransferCenters(r)
	}
	return st
}

// bumpTransferCenter records one more entry/exit visit of v in region
// r (Graph.tcCounts), inserting v in vertex order on its first visit.
// The caller rebuilds the region's list after the batch, so the list
// depends on the union evidence alone, by construction.
func (g *Graph) bumpTransferCenter(r int, v roadnet.VertexID, dirty map[int]bool) {
	g.mutTCCount(r)
	cs := g.tcCounts[r]
	if i, ok := slices.BinarySearchFunc(cs, v, func(x visitCount, v roadnet.VertexID) int { return cmp.Compare(x.v, v) }); ok {
		cs[i].c++
	} else {
		g.tcCounts[r] = slices.Insert(cs, i, visitCount{v, 1})
	}
	dirty[r] = true
}
