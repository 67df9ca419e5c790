package ch

import "repro/internal/roadnet"

// Dists returns both sides' distance labels, which must read +Inf
// everywhere between queries.
func (q *MetricQuery) Dists() (fwd, bwd []float64) { return q.fwd.dist, q.bwd.dist }

// Parcs returns both sides' arc labels, as the last query left them.
func (q *MetricQuery) Parcs() (fwd, bwd []int32) { return q.fwd.parc, q.bwd.parc }

// LabelBytesPerVertex returns one side's label bytes per vertex.
func (q *MetricQuery) LabelBytesPerVertex() int {
	s := &q.fwd
	return (8*len(s.dist) + 4*len(s.parc)) / len(s.dist)
}

// UpNeighbors returns v's up-arc range: the higher-ranked endpoints of
// the skeleton arcs v owns, in rank order.
func (t *Topology) UpNeighbors(v roadnet.VertexID) []int32 {
	return t.upTo[t.upStart[v]:t.upStart[v+1]]
}

// TriangleTable returns the lower-triangle table: each arc's range of
// tris, every triangle as its two arcs {i, j}, and each arc's owner.
func (t *Topology) TriangleTable() (triStart []int32, tris [][2]int32, lowOf []int32) {
	tris = make([][2]int32, len(t.tris))
	for x, tr := range t.tris {
		tris[x] = [2]int32{tr.i, tr.j}
	}
	return t.triStart, tris, t.lowOf
}

// ContractionOrderReference is the map-based elimination game
// ContractionOrder replaced (topo_reference_test.go).
var ContractionOrderReference = contractionOrderReference
