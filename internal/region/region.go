package region

import (
	"slices"
	"sort"

	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/pref"
	"repro/internal/roadnet"
)

// EdgeKind distinguishes trajectory-backed region edges from
// connectivity-only ones.
type EdgeKind uint8

// Region edge kinds.
const (
	TEdge EdgeKind = iota
	BEdge
)

// String implements fmt.Stringer.
func (k EdgeKind) String() string {
	if k == TEdge {
		return "T-edge"
	}
	return "B-edge"
}

// PathInfo is one distinct path associated with a region edge, with the
// number of trajectories that used it. The counts are int32s, so with
// its trip reference a PathInfo takes 40 bytes.
type PathInfo struct {
	Path  roadnet.Path
	Count int32
	// Terminal counts the contributing trajectories whose own trip
	// started in one of the edge's regions and ended in the other —
	// their full path IS this fragment, so the fragment carries exactly
	// the routing preference of travel between the two regions.
	// Fragments with Terminal = 0 come from trajectories merely passing
	// through both regions en route elsewhere.
	Terminal int32
	// trip and off name the trip Path is a window of (the graph's trip
	// table, trips.go) and where in it the window starts.
	trip, off int32
}

// Edge is a region edge. Regions are stored with R1 < R2; the two path
// sets keep direction.
type Edge struct {
	ID   int
	R1   int
	R2   int
	Kind EdgeKind
	// PathsFwd holds paths leaving R1 and entering R2; PathsRev the
	// opposite direction. B-edges start empty and are filled by the
	// preference-transfer step.
	PathsFwd []PathInfo
	PathsRev []PathInfo
	// Pref is the learned (T-edge) or transferred (B-edge) routing
	// preference; HasPref reports whether one is set. B-edges that the
	// transfer step could not label fall back to fastest paths, per the
	// paper.
	Pref    pref.Preference
	HasPref bool
	// fitted reports whether a preference was learned from this edge's
	// own path set (T-edges with paths); fit is that preference with its
	// training similarity and sample size. Pref/HasPref above are what
	// routing applies — the fit only when it clears the caller's
	// confidence gate. The graph's image (Append) does not carry them:
	// artifacts keep fits in a section of their own (core's preference
	// section).
	fitted bool
	fit    pref.Result
}

// Fit returns the preference learned from e's path set, if any.
func (e *Edge) Fit() (pref.Result, bool) { return e.fit, e.fitted }

// SetFit records (ok) or clears (!ok) the preference learned from e's
// path set. Like every edge mutation it belongs on an edge obtained
// from Graph.EdgeForUpdate.
func (e *Edge) SetFit(res pref.Result, ok bool) { e.fit, e.fitted = res, ok }

// Other returns the endpoint of e that is not r.
func (e *Edge) Other(r int) int {
	if e.R1 == r {
		return e.R2
	}
	return e.R1
}

// PathsFrom returns the path set for travel out of region r over e.
func (e *Edge) PathsFrom(r int) []PathInfo {
	if e.R1 == r {
		return e.PathsFwd
	}
	return e.PathsRev
}

// addPath registers a path from region `from` across e, a window of
// trip starting at off, deduplicating identical paths by content: a
// duplicate counts for the path stored first, which keeps its trip.
// terminal marks paths of trajectories whose trip ODs are exactly this
// region pair. A new path is stored as given.
func (e *Edge) addPath(from int, p roadnet.Path, terminal bool, trip, off int32) {
	set := &e.PathsRev
	if e.R1 == from {
		set = &e.PathsFwd
	}
	var t int32
	if terminal {
		t = 1
	}
	for i := range *set {
		if slices.Equal((*set)[i].Path, p) {
			(*set)[i].Count++
			(*set)[i].Terminal += t
			return
		}
	}
	*set = append(*set, PathInfo{Path: p, Count: 1, Terminal: t, trip: trip, off: off})
}

// Link is one adjacency entry: neighbor region To, over edge Edge.
type Link struct{ To, Edge int32 }

// InnerPath is a within-region sub-path of a trajectory, from the vertex
// where the trajectory entered the region to where it left.
type InnerPath struct {
	Path  roadnet.Path
	Count int32
	// Terminal counts contributing trajectories whose whole trip lay
	// inside the region — true local trips, as opposed to segments of
	// journeys passing through.
	Terminal int32
	// trip and off are PathInfo's.
	trip, off int32
}

// Graph is the region graph G_R.
type Graph struct {
	Road    *roadnet.Graph
	Regions []cluster.Region

	// regionOf maps road vertex -> region ID, or -1.
	regionOf []int32
	// Edges holds all region edges; adj[r] lists region r's neighbor
	// IDs, each with its edge, sorted by neighbor (insertAdj), which
	// is what FindEdge searches.
	Edges []*Edge
	adj   [][]Link

	// centroids[r] is the mean member location of region r.
	centroids []geo.Point
	// inner[r] lists the inner-region paths of region r.
	inner [][]InnerPath
	// transferCenters[r] lists vertices where trajectories entered or
	// left region r, most frequent first.
	transferCenters [][]roadnet.VertexID
	// tcCounts[r] retains the visit counts behind transferCenters[r] so
	// AddPaths recounts exactly: the lists depend on the union evidence,
	// not on its batching. Every graph carries them, built or decoded.
	tcCounts []map[roadnet.VertexID]int
	// topTypes[r] is the region's top-k road-type set (Section V-B
	// functionality feature).
	topTypes [][]roadnet.RoadType

	// trips is the trip table every stored path is a window of
	// (trips.go).
	trips *tripBatch

	// cow, when non-nil, marks this graph as a CloneCOW clone sharing
	// structure with its parent; see clone.go.
	cow *cowState
}

// NumRegions returns the number of regions.
func (g *Graph) NumRegions() int { return len(g.Regions) }

// RegionOf returns the region containing road vertex v, or -1.
func (g *Graph) RegionOf(v roadnet.VertexID) int { return int(g.regionOf[v]) }

// Centroid returns the centroid of region r.
func (g *Graph) Centroid(r int) geo.Point { return g.centroids[r] }

// Links returns region r's adjacency, in ascending neighbor ID.
func (g *Graph) Links(r int) []Link { return g.adj[r] }

// FindEdge returns the region edge between r1 and r2, or nil. It
// binary-searches the shorter of the two regions' adjacency lists.
func (g *Graph) FindEdge(r1, r2 int) *Edge {
	if len(g.adj[r2]) < len(g.adj[r1]) {
		r1, r2 = r2, r1
	}
	if i, ok := g.searchAdj(r1, r2); ok {
		return g.Edges[g.adj[r1][i].Edge]
	}
	return nil
}

// searchAdj returns where neighbor region o sits, or would sit, in
// region r's adjacency, and whether an edge to o is there.
func (g *Graph) searchAdj(r, o int) (int, bool) {
	return slices.BinarySearchFunc(g.adj[r], int32(o), func(l Link, o int32) int { return int(l.To - o) })
}

// InnerPaths returns region r's inner paths.
func (g *Graph) InnerPaths(r int) []InnerPath { return g.inner[r] }

// TransferCenters returns region r's transfer centers, most used first.
// Regions never visited by trajectories fall back to their member vertex
// closest to the centroid; a memberless region (Decode accepts one) has
// none and yields an empty list.
func (g *Graph) TransferCenters(r int) []roadnet.VertexID {
	if len(g.transferCenters[r]) > 0 {
		return g.transferCenters[r]
	}
	if len(g.Regions[r].Members) == 0 {
		return nil
	}
	best := g.Regions[r].Members[0]
	bd := g.Road.Point(best).Dist(g.centroids[r])
	for _, v := range g.Regions[r].Members[1:] {
		if d := g.Road.Point(v).Dist(g.centroids[r]); d < bd {
			best, bd = v, d
		}
	}
	return []roadnet.VertexID{best}
}

// TransferCounts returns region r's transfer centers as stored — empty
// where TransferCenters falls back to a member — and the visit counts
// behind them, for reading only.
func (g *Graph) TransferCounts(r int) ([]roadnet.VertexID, map[roadnet.VertexID]int) {
	return g.transferCenters[r], g.tcCounts[r]
}

// TopRoadTypes returns the region's top-k road-type functionality set.
func (g *Graph) TopRoadTypes(r int) []roadnet.RoadType { return g.topTypes[r] }

// TEdgeCount returns the number of T-edges.
func (g *Graph) TEdgeCount() int {
	n := 0
	for _, e := range g.Edges {
		if e.Kind == TEdge {
			n++
		}
	}
	return n
}

// BEdgeCount returns the number of B-edges.
func (g *Graph) BEdgeCount() int { return len(g.Edges) - g.TEdgeCount() }

// edge returns the (mutable) edge between r1 and r2, creating it with
// the given kind if absent. On a COW clone the returned edge is always
// privately owned — callers mutate it freely.
func (g *Graph) edge(r1, r2 int, kind EdgeKind) *Edge {
	if e := g.FindEdge(r1, r2); e != nil {
		return g.mutEdge(e.ID)
	}
	e := &Edge{ID: len(g.Edges), R1: min(r1, r2), R2: max(r1, r2), Kind: kind}
	g.Edges = append(g.Edges, e)
	if g.cow != nil {
		g.cow.edges = append(g.cow.edges, true) // freshly created, private
	}
	g.insertAdj(e.R1, e.R2, e.ID)
	g.insertAdj(e.R2, e.R1, e.ID)
	return e
}

// insertAdj adds edge id, to neighbor region o, to region r's
// adjacency, keeping the list ordered by neighbor ID. Adjacency order
// is therefore a function of the graph's edge *set*, not of edge
// creation history — however the evidence was batched, and whether
// ConnectBFS ran before or after some of it, neighbors are traversed
// in the same order, which the online-maintenance convergence
// guarantee depends on. Each region pair has exactly one edge, so
// neighbor IDs are unique within a list.
func (g *Graph) insertAdj(r, o, id int) {
	g.mutAdj(r)
	i, _ := g.searchAdj(r, o)
	g.adj[r] = slices.Insert(g.adj[r], i, Link{int32(o), int32(id)})
}

// topK is the size of a region's road-type functionality set, and
// maxTransferCenters caps the per-region transfer-center list used when
// materializing B-edge paths.
const (
	topK               = 2
	maxTransferCenters = 4
)

// Options tunes region-graph construction.
type Options struct {
	// MaxRegionSpan caps, per trajectory, the number of later regions
	// each visit is paired with when constructing T-edges; a trajectory
	// through m regions yields up to m·MaxRegionSpan T-edge
	// contributions instead of m·(m−1)/2. 0 means unlimited, as in the
	// paper.
	MaxRegionSpan int
}

// visit is a maximal run of consecutive trajectory vertices inside one
// region.
type visit struct {
	region      int
	entry, exit int // indices into the trajectory path
}

// Build constructs the region graph from clustering output and
// map-matched trajectory paths: the partition skeleton — membership,
// centroids, road-type sets, empty count maps — with every path then
// ingested by AddPaths, the one loop that creates T-edges, transfer
// centers and inner-region paths. Call ConnectBFS afterwards to add
// B-edges.
func Build(road *roadnet.Graph, regions []cluster.Region, paths []roadnet.Path, opt Options) *Graph {
	g := &Graph{
		Road:    road,
		Regions: regions,
	}
	n := road.NumVertices()
	g.regionOf = make([]int32, n)
	for i := range g.regionOf {
		g.regionOf[i] = -1
	}
	for _, r := range regions {
		for _, v := range r.Members {
			g.regionOf[v] = int32(r.ID)
		}
	}
	g.adj = make([][]Link, len(regions))
	g.inner = make([][]InnerPath, len(regions))
	g.centroids = make([]geo.Point, len(regions))
	for _, r := range regions {
		pts := make([]geo.Point, len(r.Members))
		for i, v := range r.Members {
			pts[i] = road.Point(v)
		}
		g.centroids[r.ID] = geo.Centroid(pts)
	}
	g.computeTopTypes()

	g.tcCounts = make([]map[roadnet.VertexID]int, len(regions))
	for i := range g.tcCounts {
		g.tcCounts[i] = make(map[roadnet.VertexID]int)
	}
	g.transferCenters = make([][]roadnet.VertexID, len(regions))
	g.AddPaths(paths, opt)
	return g
}

// rebuildTransferCenters re-materializes region r's transfer-center
// list from the retained visit counts: most visited first, vertex ID
// breaking ties, capped at maxTransferCenters. The list is a function of
// the counts alone, so it does not depend on how the evidence was
// batched; it replaces the old list whole, so a COW clone need not copy
// that first.
func (g *Graph) rebuildTransferCenters(r int) {
	m := g.tcCounts[r]
	type vc struct {
		v roadnet.VertexID
		c int
	}
	vcs := make([]vc, 0, len(m))
	for v, c := range m {
		vcs = append(vcs, vc{v, c})
	}
	sort.Slice(vcs, func(i, j int) bool {
		if vcs[i].c != vcs[j].c {
			return vcs[i].c > vcs[j].c
		}
		return vcs[i].v < vcs[j].v
	})
	if len(vcs) > maxTransferCenters {
		vcs = vcs[:maxTransferCenters]
	}
	list := make([]roadnet.VertexID, len(vcs))
	for i, x := range vcs {
		list[i] = x.v
	}
	g.transferCenters[r] = list
}

// segmentVisits splits a trajectory path into maximal same-region runs.
// Vertices outside all regions separate visits but create none.
func segmentVisits(g *Graph, p roadnet.Path) []visit {
	var out []visit
	cur := -1
	for i, v := range p {
		r := g.RegionOf(v)
		if r < 0 {
			cur = -1
			continue
		}
		if cur >= 0 && out[len(out)-1].region == r && cur == i-1 {
			out[len(out)-1].exit = i
		} else {
			out = append(out, visit{region: r, entry: i, exit: i})
		}
		cur = i
	}
	return out
}

// addInner registers an inner path of region r, a window of trip
// starting at off, deduplicating by content as Edge.addPath does.
func (g *Graph) addInner(r int, p roadnet.Path, terminal bool, trip, off int32) {
	g.mutInner(r) // counter bumps and appends below must not hit shared backing
	var t int32
	if terminal {
		t = 1
	}
	for i := range g.inner[r] {
		if slices.Equal(g.inner[r][i].Path, p) {
			g.inner[r][i].Count++
			g.inner[r][i].Terminal += t
			return
		}
	}
	g.inner[r] = append(g.inner[r], InnerPath{Path: p, Count: 1, Terminal: t, trip: trip, off: off})
}

// computeTopTypes fills the per-region top-k road-type sets from the
// edges incident to the region's member vertices in the road network.
func (g *Graph) computeTopTypes() {
	g.topTypes = make([][]roadnet.RoadType, len(g.Regions))
	for _, r := range g.Regions {
		var counts [roadnet.NumRoadTypes]int
		for _, v := range r.Members {
			for _, e := range g.Road.Out(v) {
				counts[g.Road.Edge(e).Type]++
			}
			for _, e := range g.Road.In(v) {
				counts[g.Road.Edge(e).Type]++
			}
		}
		type tc struct {
			t roadnet.RoadType
			c int
		}
		var tcs []tc
		for t := roadnet.RoadType(0); t < roadnet.NumRoadTypes; t++ {
			if counts[t] > 0 {
				tcs = append(tcs, tc{t, counts[t]})
			}
		}
		sort.Slice(tcs, func(i, j int) bool {
			if tcs[i].c != tcs[j].c {
				return tcs[i].c > tcs[j].c
			}
			return tcs[i].t < tcs[j].t
		})
		if len(tcs) > topK {
			tcs = tcs[:topK]
		}
		tt := make([]roadnet.RoadType, len(tcs))
		for i, x := range tcs {
			tt[i] = x.t
		}
		g.topTypes[r.ID] = tt
	}
}
