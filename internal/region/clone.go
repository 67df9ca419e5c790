package region

import "repro/internal/roadnet"

// cowState tracks which parts of a CloneCOW graph have been privatized.
// A nil Graph.cow means the graph fully owns its data (built or
// decoded) and mutation helpers are no-ops.
type cowState struct {
	edges []bool // Edges[i] privately owned
	inner []bool // inner[i] privately owned
	tccs  []bool // tcCounts[i] privately owned
	adj   []bool // adj[i] privately owned
}

// CloneCOW returns a copy-on-write clone: the outer slice headers are
// copied (O(regions + edges) pointers) while every edge, path set,
// inner-path list and transfer-center list stays shared with g until
// the first mutation touches it, at which point exactly that piece is
// copied (mutEdge and friends below). AddPaths plus the per-touched-edge
// re-learning that serving runs per ingest batch therefore costs
// O(batch), not O(everything ever stored). Beyond regionOf and the
// sorted adjacency the graph derives nothing, so a write has no index
// or cache to copy: lookups search the adjacency, and dedup compares
// stored paths by content.
//
// The isolation contract is one-directional: mutations through the
// clone never write to memory reachable from g (privatize-on-write
// only ever reads shared state), so readers of g need no
// synchronization; but g itself must stay unmutated while the clone is
// alive, since the clone reads through to it. Chained generations
// (clone of a clone) are fine — each generation re-marks everything
// shared and reads through its parent.
func (g *Graph) CloneCOW() *Graph {
	cp := &Graph{
		Road:      g.Road,
		Regions:   g.Regions,
		regionOf:  g.regionOf,
		centroids: g.centroids,
		topTypes:  g.topTypes,
		trips:     g.trips,
	}
	cp.Edges = append([]*Edge(nil), g.Edges...)
	cp.adj = append([][]Link(nil), g.adj...)
	cp.inner = append([][]InnerPath(nil), g.inner...)
	cp.transferCenters = append([][]roadnet.VertexID(nil), g.transferCenters...)
	cp.tcCounts = append([][]visitCount(nil), g.tcCounts...)
	cp.cow = &cowState{
		edges: make([]bool, len(g.Edges)),
		inner: make([]bool, len(g.inner)),
		tccs:  make([]bool, len(g.tcCounts)),
		adj:   make([]bool, len(g.adj)),
	}
	return cp
}

// mutEdge returns Edges[i] ready for mutation, privatizing it first on
// a COW graph: the Edge struct — kind, preference, fit — and its
// PathInfo slices are copied (the stored Path vertex slices stay shared
// — they are never edited in place). Both lists are copied into one
// exactly sized block, cut into two capped windows, so an append to
// either reallocates rather than write into the other.
func (g *Graph) mutEdge(i int) *Edge {
	if g.cow == nil || g.cow.edges[i] {
		return g.Edges[i]
	}
	ne := *g.Edges[i]
	nf := len(ne.PathsFwd)
	buf := make([]PathInfo, nf+len(ne.PathsRev))
	copy(buf, ne.PathsFwd)
	copy(buf[nf:], ne.PathsRev)
	ne.PathsFwd, ne.PathsRev = nil, nil
	if nf > 0 {
		ne.PathsFwd = buf[:nf:nf]
	}
	if len(buf) > nf {
		ne.PathsRev = buf[nf:]
	}
	g.Edges[i] = &ne
	g.cow.edges[i] = true
	return &ne
}

// EdgeForUpdate returns the edge with ID id for mutation (preference
// re-learning after AddPaths), privatized on a COW graph.
func (g *Graph) EdgeForUpdate(id int) *Edge { return g.mutEdge(id) }

// mutInner privatizes region r's inner-path list before mutation (both
// counter bumps and appends write shared backing otherwise).
func (g *Graph) mutInner(r int) {
	if g.cow == nil || g.cow.inner[r] {
		return
	}
	g.inner[r] = append([]InnerPath(nil), g.inner[r]...)
	g.cow.inner[r] = true
}

// mutTCCount privatizes region r's visit counts before a bump (an
// increment in place would otherwise hit the parent's pairs), with room
// for one new vertex.
func (g *Graph) mutTCCount(r int) {
	if g.cow == nil || g.cow.tccs[r] {
		return
	}
	g.tcCounts[r] = append(make([]visitCount, 0, len(g.tcCounts[r])+1), g.tcCounts[r]...)
	g.cow.tccs[r] = true
}

// mutAdj privatizes region r's adjacency before inserting.
func (g *Graph) mutAdj(r int) {
	if g.cow == nil || g.cow.adj[r] {
		return
	}
	g.adj[r] = append([]Link(nil), g.adj[r]...)
	g.cow.adj[r] = true
}
