package roadnet

import (
	"fmt"
	"math"

	"repro/internal/geo"
)

// VertexID identifies a vertex (road intersection) in a Graph.
type VertexID int32

// EdgeID identifies a directed edge (road segment) in a Graph.
type EdgeID int32

// NoVertex is the sentinel for "no vertex".
const NoVertex VertexID = -1

// NoEdge is the sentinel for "no edge".
const NoEdge EdgeID = -1

// RoadType is the OSM-style road classification used as the RT weight and
// as the road-condition feature space of the preference model. Order is
// from most to least important; the paper uses these six types.
type RoadType uint8

// Road types, from motorway down to residential.
const (
	Motorway RoadType = iota
	Trunk
	Primary
	Secondary
	Tertiary
	Residential
	NumRoadTypes = 6
)

var roadTypeNames = [NumRoadTypes]string{
	"motorway", "trunk", "primary", "secondary", "tertiary", "residential",
}

// String implements fmt.Stringer.
func (t RoadType) String() string {
	if int(t) < len(roadTypeNames) {
		return roadTypeNames[t]
	}
	return fmt.Sprintf("roadtype(%d)", uint8(t))
}

// DefaultSpeedKmh returns the free-flow speed limit assumed for the road
// type, in km/h.
func (t RoadType) DefaultSpeedKmh() float64 {
	switch t {
	case Motorway:
		return 120
	case Trunk:
		return 90
	case Primary:
		return 70
	case Secondary:
		return 60
	case Tertiary:
		return 50
	default:
		return 30
	}
}

// ExpectedStops returns the expected number of full stops when traversing
// one edge of this type; used by the fuel model.
func (t RoadType) ExpectedStops() float64 {
	switch t {
	case Motorway:
		return 0
	case Trunk:
		return 0.05
	case Primary:
		return 0.15
	case Secondary:
		return 0.25
	case Tertiary:
		return 0.4
	default:
		return 0.6
	}
}

// Edge is a directed road segment.
type Edge struct {
	From, To VertexID
	// Length is the segment length in meters (the DI weight).
	Length float64
	// TravelTime is the free-flow traversal time in seconds (the TT
	// weight).
	TravelTime float64
	// Fuel is the traversal fuel consumption in liters (the FC weight).
	Fuel float64
	// Type is the road classification (the RT weight).
	Type RoadType
}

// Graph is an immutable road network. Build one with a Builder. Vertices
// and edges are stored in dense arrays; the adjacency structure is CSR
// (compressed sparse row) over out-edges, plus a mirrored CSR over
// in-edges for reverse traversals.
type Graph struct {
	pts   []geo.Point
	edges []Edge

	outStart []int32  // len = |V|+1
	outEdges []EdgeID // len = |E|, sorted by From

	inStart []int32
	inEdges []EdgeID
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.pts) }

// NumEdges returns |E| (directed edges).
func (g *Graph) NumEdges() int { return len(g.edges) }

// Point returns the planar location of v.
func (g *Graph) Point(v VertexID) geo.Point { return g.pts[v] }

// Edge returns the edge record for e.
func (g *Graph) Edge(e EdgeID) Edge { return g.edges[e] }

// Out returns the IDs of edges leaving v. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) Out(v VertexID) []EdgeID {
	return g.outEdges[g.outStart[v]:g.outStart[v+1]]
}

// In returns the IDs of edges entering v. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) In(v VertexID) []EdgeID {
	return g.inEdges[g.inStart[v]:g.inStart[v+1]]
}

// FindEdge returns the ID of the directed edge from u to v, or NoEdge.
func (g *Graph) FindEdge(u, v VertexID) EdgeID {
	for _, e := range g.Out(u) {
		if g.edges[e].To == v {
			return e
		}
	}
	return NoEdge
}

// Bounds returns the bounding rectangle of all vertices.
func (g *Graph) Bounds() geo.Rect { return geo.Bound(g.pts) }

// Weight is the cost feature used as the master dimension of a routing
// preference: one of the paper's travel-cost weight functions.
type Weight uint8

// The three travel-cost weights of the preference model plus RT, which is
// not a scalar cost but is listed for completeness of W.
const (
	DI Weight = iota // distance, meters
	TT               // travel time, seconds
	FC               // fuel consumption, liters
)

// NumCostWeights is the number of scalar travel-cost weights (DI, TT, FC).
const NumCostWeights = 3

// String implements fmt.Stringer.
func (w Weight) String() string {
	switch w {
	case DI:
		return "DI"
	case TT:
		return "TT"
	case FC:
		return "FC"
	}
	return fmt.Sprintf("weight(%d)", uint8(w))
}

// EdgeWeight returns the scalar cost of edge e under weight w.
func (g *Graph) EdgeWeight(e EdgeID, w Weight) float64 {
	ed := &g.edges[e]
	switch w {
	case DI:
		return ed.Length
	case TT:
		return ed.TravelTime
	default:
		return ed.Fuel
	}
}

// Path is a sequence of vertices where consecutive vertices are connected
// by an edge.
type Path []VertexID

// Valid reports whether the path is non-empty and connected in g. A
// vertex ID outside g (a foreign graph's path) makes the path invalid,
// not a panic: the first ID is range-checked, and every later one must
// be the head of one of g's edges.
func (p Path) Valid(g *Graph) bool {
	if len(p) == 0 || p[0] < 0 || int(p[0]) >= g.NumVertices() {
		return false
	}
	for i := 1; i < len(p); i++ {
		if g.FindEdge(p[i-1], p[i]) == NoEdge {
			return false
		}
	}
	return true
}

// Cost returns the total cost of the path under weight w. Unconnected
// steps contribute +Inf.
func (p Path) Cost(g *Graph, w Weight) float64 {
	var c float64
	for i := 1; i < len(p); i++ {
		e := g.FindEdge(p[i-1], p[i])
		if e == NoEdge {
			return math.Inf(1)
		}
		c += g.EdgeWeight(e, w)
	}
	return c
}

// Length returns the total length of the path in meters.
func (p Path) Length(g *Graph) float64 { return p.Cost(g, DI) }

// Measures returns Length and Cost(TT) from one walk: one FindEdge per
// hop yields both weights. Each sum runs in Cost's order, so the two
// values equal Length(g) and Cost(g, TT) bit for bit; an unconnected
// step makes both +Inf.
func (p Path) Measures(g *Graph) (lengthM, travelTimeS float64) {
	for i := 1; i < len(p); i++ {
		e := g.FindEdge(p[i-1], p[i])
		if e == NoEdge {
			return math.Inf(1), math.Inf(1)
		}
		ed := &g.edges[e]
		lengthM += ed.Length
		travelTimeS += ed.TravelTime
	}
	return lengthM, travelTimeS
}

// Polyline returns the geometry of the path.
func (p Path) Polyline(g *Graph) geo.Polyline {
	pl := make(geo.Polyline, len(p))
	for i, v := range p {
		pl[i] = g.Point(v)
	}
	return pl
}

// Concat joins paths end to start: the last vertex of each piece must
// equal the first vertex of the next, and the duplicate is dropped.
// Empty pieces are skipped. Concat panics if the pieces do not line up;
// callers construct the pieces so this is a programming error.
func Concat(pieces ...Path) Path {
	// One exact-size allocation: every join drops one vertex.
	n, joins := 0, -1
	for _, p := range pieces {
		if len(p) > 0 {
			n += len(p)
			joins++
		}
	}
	if joins < 0 {
		return nil
	}
	out := make(Path, 0, n-joins)
	for _, p := range pieces {
		if len(p) == 0 {
			continue
		}
		if len(out) == 0 {
			out = append(out, p...)
			continue
		}
		if out[len(out)-1] != p[0] {
			panic(fmt.Sprintf("roadnet.Concat: pieces do not join (%d != %d)", out[len(out)-1], p[0]))
		}
		out = append(out, p[1:]...)
	}
	return out
}
