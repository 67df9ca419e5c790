package ch

import "repro/internal/roadnet"

// SetEpoch places both sides' epoch counters, so a test can start a
// query context a few queries short of the uint32 wrap instead of
// running 2³² queries to get there.
func (q *MetricQuery) SetEpoch(e uint32) {
	q.fwd.epoch, q.bwd.epoch = e, e
}

// StampAll sets every vertex's stamp on both sides to e, as if a query
// in epoch e had labelled the whole graph.
func (q *MetricQuery) StampAll(e uint32) {
	for i := range q.fwd.seen {
		q.fwd.seen[i], q.bwd.seen[i] = e, e
	}
}

// Epoch returns the forward side's epoch.
func (q *MetricQuery) Epoch() uint32 { return q.fwd.epoch }

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
