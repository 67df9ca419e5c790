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
