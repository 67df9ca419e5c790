package spatial

import (
	"math"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

// Index is a uniform grid over the bounding box of a road network.
type Index struct {
	g      *roadnet.Graph
	bounds geo.Rect
	cell   float64
	nx, ny int
	ecells [][]roadnet.EdgeID
}

// NewIndex builds a grid index with the given cell size in meters.
// Cell sizes around 250–500 m work well for the synthetic maps.
func NewIndex(g *roadnet.Graph, cellM float64) *Index {
	b := g.Bounds().Expand(cellM)
	nx := int(math.Ceil(b.Width()/cellM)) + 1
	ny := int(math.Ceil(b.Height()/cellM)) + 1
	idx := &Index{
		g: g, bounds: b, cell: cellM, nx: nx, ny: ny,
		ecells: make([][]roadnet.EdgeID, nx*ny),
	}
	for e := roadnet.EdgeID(0); int(e) < g.NumEdges(); e++ {
		ed := g.Edge(e)
		// Register the edge in every cell its segment passes near by
		// walking the covering cells of its bounding box; edges are
		// short relative to cells so this stays cheap.
		a, bb := g.Point(ed.From), g.Point(ed.To)
		r := geo.NewRect(a, bb)
		idx.eachCell(r, func(c int) {
			idx.ecells[c] = append(idx.ecells[c], e)
		})
	}
	return idx
}

func (idx *Index) cellCoords(p geo.Point) (int, int) {
	cx := int((p.X - idx.bounds.Min.X) / idx.cell)
	cy := int((p.Y - idx.bounds.Min.Y) / idx.cell)
	cx = clamp(cx, 0, idx.nx-1)
	cy = clamp(cy, 0, idx.ny-1)
	return cx, cy
}

func (idx *Index) eachCell(r geo.Rect, f func(c int)) {
	x0, y0 := idx.cellCoords(r.Min)
	x1, y1 := idx.cellCoords(r.Max)
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			f(cy*idx.nx + cx)
		}
	}
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

// EdgeCandidate is an edge near a query point.
type EdgeCandidate struct {
	Edge roadnet.EdgeID
	// Dist is the distance from the query point to the edge segment.
	Dist float64
	// Proj is the closest point on the segment.
	Proj geo.Point
	// Frac is the normalized position of Proj along the edge.
	Frac float64
}

// EdgesWithin returns candidate edges whose segments pass within radius
// meters of p, sorted by ascending distance. Each undirected road
// contributes its directed edges separately; map matching wants that,
// since direction matters for transitions.
func (idx *Index) EdgesWithin(p geo.Point, radius float64) []EdgeCandidate {
	r := geo.NewRect(
		geo.Pt(p.X-radius, p.Y-radius),
		geo.Pt(p.X+radius, p.Y+radius),
	)
	seen := make(map[roadnet.EdgeID]bool)
	var out []EdgeCandidate
	idx.eachCell(r, func(c int) {
		for _, e := range idx.ecells[c] {
			if seen[e] {
				continue
			}
			seen[e] = true
			ed := idx.g.Edge(e)
			seg := geo.Segment{A: idx.g.Point(ed.From), B: idx.g.Point(ed.To)}
			proj, frac := seg.Project(p)
			d := p.Dist(proj)
			if d <= radius {
				out = append(out, EdgeCandidate{Edge: e, Dist: d, Proj: proj, Frac: frac})
			}
		}
	})
	sortCandidates(out)
	return out
}

func sortCandidates(cs []EdgeCandidate) {
	// Insertion sort: candidate lists are short (tens of entries).
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].Dist < cs[j-1].Dist; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}
