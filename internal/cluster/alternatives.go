package cluster

import (
	"sort"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

// This file implements the two related-work clustering methods the paper
// compares its parameter-free design against (Section II): the
// grid-based region construction of Wei et al. (KDD 2012), which merges
// adjacent grid cells passed by more than tau common trajectories, and
// the road-hierarchy partition of Gonzalez et al. (VLDB 2007), which
// cuts the network into areas bounded by roads of the top l levels.
// Both exist so the ablation benches can show what the paper claims:
// they require per-map parameter tuning while modularity clustering
// does not.
//
// Unlike Algorithm 1 neither method is parameter-free: the grid's cell
// size and tau, and the hierarchy's level count l, must be tuned per
// map, and l "may vary from country to country". The ablations compare
// each at one setting, the constants below; the package's tests sweep
// them through the unexported forms to show how much the partition
// moves.
const (
	// gridCellSizeM is the square grid cell edge length in meters.
	gridCellSizeM = 500
	// gridTau is the trajectory count two adjacent cells must share,
	// exceeded, for the cells to be merged.
	gridTau = 2
	// hierarchyLevels is the l of Gonzalez et al.: how many top road-type
	// levels form the partition boundary network (motorway + trunk).
	// There is no universal value.
	hierarchyLevels = 2
)

// GridCluster implements the grid-based region construction of Wei et
// al.: overlay a uniform grid of gridCellSizeM cells, count
// per-cell-pair trajectory co-traversals, and union adjacent cells
// whose shared trajectory count exceeds gridTau. Only vertices visited
// by trajectories are assigned to regions, mirroring the
// trajectory-graph scope of Algorithm 1.
func GridCluster(g *roadnet.Graph, paths []roadnet.Path) []Region {
	return gridCluster(g, paths, gridCellSizeM, gridTau)
}

// gridCluster is GridCluster with cells cellSizeM meters wide, merged
// above tau shared trajectories.
func gridCluster(g *roadnet.Graph, paths []roadnet.Path, cellSizeM float64, tau int) []Region {
	bounds := g.Bounds()
	cols := int(bounds.Width()/cellSizeM) + 1
	rows := int(bounds.Height()/cellSizeM) + 1
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	cellOf := func(v roadnet.VertexID) int {
		p := g.Point(v)
		cx := int((p.X - bounds.Min.X) / cellSizeM)
		cy := int((p.Y - bounds.Min.Y) / cellSizeM)
		cx = clamp(cx, 0, cols-1)
		cy = clamp(cy, 0, rows-1)
		return cy*cols + cx
	}

	// Count trajectories crossing each adjacent cell pair. A trajectory
	// contributes at most once per pair.
	pairCount := make(map[[2]int]int)
	visited := make(map[roadnet.VertexID]bool)
	for _, p := range paths {
		seen := make(map[[2]int]bool)
		for i, v := range p {
			visited[v] = true
			if i == 0 {
				continue
			}
			a, b := cellOf(p[i-1]), cellOf(v)
			if a == b {
				continue
			}
			k := orderedPair(a, b)
			if !seen[k] {
				seen[k] = true
				pairCount[k]++
			}
		}
	}

	// Union-find over cells; merge adjacent cells above the threshold.
	parent := make(map[int]int)
	var find func(x int) int
	find = func(x int) int {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for k, c := range pairCount {
		if c > tau && adjacentCells(k[0], k[1], cols) {
			union(k[0], k[1])
		}
	}

	// Group visited vertices by merged cell root.
	groups := make(map[int][]roadnet.VertexID)
	for v := range visited {
		root := find(cellOf(v))
		groups[root] = append(groups[root], v)
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)

	regions := make([]Region, 0, len(roots))
	for i, r := range roots {
		reg := Region{ID: i, Members: groups[r], RoadType: dominantTypeOf(g, groups[r])}
		reg.sortMembers()
		regions = append(regions, reg)
	}
	return regions
}

// HierarchyPartition implements the prior-knowledge road-hierarchy
// partition of Gonzalez et al.: remove all edges whose road type is in
// the top hierarchyLevels levels and take the connected components of
// the remainder as regions. Vertices only incident to top-level roads
// become single-vertex regions. Only trajectory-visited vertices are
// kept, for comparability with Algorithm 1.
func HierarchyPartition(g *roadnet.Graph, paths []roadnet.Path) []Region {
	return hierarchyPartition(g, paths, hierarchyLevels)
}

// hierarchyPartition is HierarchyPartition with the top levels road
// types as the boundary network.
func hierarchyPartition(g *roadnet.Graph, paths []roadnet.Path, levels int) []Region {
	visited := make(map[roadnet.VertexID]bool)
	for _, p := range paths {
		for _, v := range p {
			visited[v] = true
		}
	}
	verts := make([]roadnet.VertexID, 0, len(visited))
	for v := range visited {
		verts = append(verts, v)
	}
	sort.Slice(verts, func(i, j int) bool { return verts[i] < verts[j] })

	idx := make(map[roadnet.VertexID]int, len(verts))
	for i, v := range verts {
		idx[v] = i
	}

	// Connected components over low-level edges between visited
	// vertices.
	parent := make([]int, len(verts))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, v := range verts {
		for _, e := range g.Out(v) {
			ed := g.Edge(e)
			if int(ed.Type) < levels {
				continue // boundary road: cut
			}
			j, ok := idx[ed.To]
			if !ok {
				continue
			}
			ri, rj := find(idx[v]), find(j)
			if ri != rj {
				parent[ri] = rj
			}
		}
	}

	groups := make(map[int][]roadnet.VertexID)
	for i, v := range verts {
		groups[find(i)] = append(groups[find(i)], v)
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)

	regions := make([]Region, 0, len(roots))
	for i, r := range roots {
		reg := Region{ID: i, Members: groups[r], RoadType: dominantTypeOf(g, groups[r])}
		reg.sortMembers()
		regions = append(regions, reg)
	}
	return regions
}

// dominantTypeOf returns the most frequent road type among the edges
// incident to the member vertices.
func dominantTypeOf(g *roadnet.Graph, members []roadnet.VertexID) roadnet.RoadType {
	var counts [roadnet.NumRoadTypes]int
	for _, v := range members {
		for _, e := range g.Out(v) {
			counts[g.Edge(e).Type]++
		}
	}
	best := roadnet.Residential
	bestC := -1
	for t, c := range counts {
		if c > bestC {
			bestC = c
			best = roadnet.RoadType(t)
		}
	}
	return best
}

// RegionStats summarizes a clustering for the ablation comparisons:
// region count, mean size, singleton share and mean convex-hull area.
type RegionStats struct {
	Regions    int
	MeanSize   float64
	Singletons int
	MeanAreaM2 float64
}

// Summarize computes RegionStats over a region set.
func Summarize(g *roadnet.Graph, regions []Region) RegionStats {
	var st RegionStats
	st.Regions = len(regions)
	if len(regions) == 0 {
		return st
	}
	totalSize := 0
	totalArea := 0.0
	for _, r := range regions {
		totalSize += len(r.Members)
		if len(r.Members) == 1 {
			st.Singletons++
		}
		pts := make([]geo.Point, len(r.Members))
		for i, v := range r.Members {
			pts[i] = g.Point(v)
		}
		hull := geo.ConvexHull(pts)
		totalArea += geo.PolygonArea(hull)
	}
	st.MeanSize = float64(totalSize) / float64(len(regions))
	st.MeanAreaM2 = totalArea / float64(len(regions))
	return st
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func orderedPair(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

func adjacentCells(a, b, cols int) bool {
	ax, ay := a%cols, a/cols
	bx, by := b%cols, b/cols
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx+dy == 1
}
