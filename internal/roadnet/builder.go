package roadnet

import (
	"fmt"

	"repro/internal/geo"
)

// Builder accumulates vertices and edges and produces an immutable Graph.
type Builder struct {
	pts   []geo.Point
	edges []Edge
	seen  map[[2]VertexID]struct{}
}

// NewBuilder returns an empty Builder; FC weights come from the default
// fuel model (fuel.go).
func NewBuilder() *Builder {
	return &Builder{seen: make(map[[2]VertexID]struct{})}
}

// AddVertex appends a vertex at p and returns its ID.
func (b *Builder) AddVertex(p geo.Point) VertexID {
	b.pts = append(b.pts, p)
	return VertexID(len(b.pts) - 1)
}

// Point returns the location of an already-added vertex.
func (b *Builder) Point(v VertexID) geo.Point { return b.pts[v] }

// AddEdge adds the directed edge u→v with the given road type, deriving
// length from geometry, travel time from the type's speed limit and fuel
// from the fuel model. Duplicate (u, v) pairs are ignored so generators
// can be sloppy about overlap. Self loops are ignored.
func (b *Builder) AddEdge(u, v VertexID, t RoadType) {
	b.AddEdgeSpeed(u, v, t, t.DefaultSpeedKmh())
}

// AddEdgeSpeed is AddEdge with an explicit speed limit in km/h.
func (b *Builder) AddEdgeSpeed(u, v VertexID, t RoadType, speedKmh float64) {
	if u == v {
		return
	}
	key := [2]VertexID{u, v}
	if _, dup := b.seen[key]; dup {
		return
	}
	b.seen[key] = struct{}{}
	length := b.pts[u].Dist(b.pts[v])
	if length <= 0 {
		length = 1 // degenerate coincident vertices; keep weights positive
	}
	tt := length / (speedKmh / 3.6)
	fc := defaultFuel.edgeLiters(length, speedKmh, t.ExpectedStops())
	b.edges = append(b.edges, Edge{
		From: u, To: v,
		Length:     length,
		TravelTime: tt,
		Fuel:       fc,
		Type:       t,
	})
}

// AddRoad adds edges in both directions between u and v.
func (b *Builder) AddRoad(u, v VertexID, t RoadType) {
	b.AddEdge(u, v, t)
	b.AddEdge(v, u, t)
}

// Build freezes the builder into an immutable Graph. Each CSR lists a
// vertex's edges ordered by the other endpoint: out-edges by (From, To),
// in-edges by (To, From), and copies of a repeated pair (which AddEdge
// drops but a hand-written TSV can carry) by EdgeID. Three stable
// counting sorts build both — by To, then by From (the out order), then
// that by To (the in order) — in linear time.
func (b *Builder) Build() *Graph {
	g := &Graph{pts: b.pts, edges: b.edges}
	n := len(b.pts)
	g.outStart = make([]int32, n+1)
	g.inStart = make([]int32, n+1)
	for _, e := range b.edges {
		g.outStart[e.From+1]++
		g.inStart[e.To+1]++
	}
	for i := 0; i < n; i++ {
		g.outStart[i+1] += g.outStart[i]
		g.inStart[i+1] += g.inStart[i]
	}

	// Stable counting sort of src into dst by key; start holds the key's
	// CSR offsets.
	next := make([]int32, n)
	place := func(dst, src []EdgeID, start []int32, key func(*Edge) VertexID) {
		copy(next, start[:n])
		for _, e := range src {
			k := key(&b.edges[e])
			dst[next[k]] = e
			next[k]++
		}
	}
	from := func(e *Edge) VertexID { return e.From }
	to := func(e *Edge) VertexID { return e.To }
	m := len(b.edges)
	g.outEdges, g.inEdges = make([]EdgeID, m), make([]EdgeID, m)
	byTo := make([]EdgeID, m)
	for e := range g.inEdges {
		g.inEdges[e] = EdgeID(e)
	}
	place(byTo, g.inEdges, g.inStart, to)
	place(g.outEdges, byTo, g.outStart, from)
	place(g.inEdges, g.outEdges, g.inStart, to)
	return g
}

// Validate performs structural sanity checks on a built graph, returning
// a descriptive error for the first violation found. It is used by tests
// and by cmd/l2rgen after generation.
func Validate(g *Graph) error {
	n := VertexID(g.NumVertices())
	for i, e := range g.edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("edge %d: endpoint out of range", i)
		}
		if e.Length <= 0 || e.TravelTime <= 0 || e.Fuel <= 0 {
			return fmt.Errorf("edge %d: non-positive weight (len=%g tt=%g fc=%g)", i, e.Length, e.TravelTime, e.Fuel)
		}
		if e.Type >= NumRoadTypes {
			return fmt.Errorf("edge %d: bad road type %d", i, e.Type)
		}
	}
	var total int
	for v := VertexID(0); v < n; v++ {
		out := g.Out(v)
		total += len(out)
		for _, e := range out {
			if g.Edge(e).From != v {
				return fmt.Errorf("CSR corruption: edge %d listed under vertex %d but From=%d", e, v, g.Edge(e).From)
			}
		}
	}
	if total != g.NumEdges() {
		return fmt.Errorf("CSR corruption: %d out-entries for %d edges", total, g.NumEdges())
	}
	return nil
}
