package ch

import (
	"math"

	"repro/internal/container"
	"repro/internal/roadnet"
)

// MetricQuery is a reusable bidirectional search context over one
// Topology, serving any Metric customized from it: the metric is a
// per-call argument, so one query context (and its per-vertex arrays)
// amortizes across every metric a fork routes on. Buffers are allocated
// once and recycled across queries by the epoch trick — resetting costs
// two counter bumps, not O(|V|) clears or fresh allocations.
//
// A MetricQuery is not safe for concurrent use; create one per
// goroutine (route.CHEngine keeps one per fork).
type MetricQuery struct {
	t        *Topology
	fwd, bwd cchSide
	chain    []cchLink // packed-chain scratch, reused across queries
}

// cchSide is one direction of the bidirectional upward search.
type cchSide struct {
	dist   []float64
	parent []int32 // parent vertex in the search tree
	parc   []int32 // skeleton arc index used from parent
	seen   []int32
	epoch  int32
	pq     *container.IndexedMinHeap
}

// cchLink is one packed search-tree step: vertex v reached from parent
// over skeleton arc k.
type cchLink struct {
	parent, v, k int32
}

func newCCHSide(n int) cchSide {
	return cchSide{
		dist:   make([]float64, n),
		parent: make([]int32, n),
		parc:   make([]int32, n),
		seen:   make([]int32, n),
		pq:     container.NewIndexedMinHeap(n),
	}
}

func (s *cchSide) reset() {
	s.epoch++
	s.pq.Reset()
}

func (s *cchSide) d(v int32) float64 {
	if s.seen[v] != s.epoch {
		return math.Inf(1)
	}
	return s.dist[v]
}

func (s *cchSide) set(v int32, d float64, parent, k int32) {
	s.seen[v] = s.epoch
	s.dist[v] = d
	s.parent[v] = parent
	s.parc[v] = k
}

// NewMetricQuery allocates a query context for t.
func NewMetricQuery(t *Topology) *MetricQuery {
	n := len(t.rank)
	return &MetricQuery{t: t, fwd: newCCHSide(n), bwd: newCCHSide(n)}
}

// Cost returns the shortest-path cost from s to d under m, and whether
// d is reachable.
func (q *MetricQuery) Cost(m *Metric, s, d roadnet.VertexID) (float64, bool) {
	c, _, ok := q.run(m, int32(s), int32(d))
	return c, ok
}

// Route returns the shortest path from s to d under m and its cost,
// fully unpacked to original road-network vertices.
func (q *MetricQuery) Route(m *Metric, s, d roadnet.VertexID) (roadnet.Path, float64, bool) {
	cost, meet, ok := q.run(m, int32(s), int32(d))
	if !ok {
		return nil, 0, false
	}
	return q.unpackFrom(roadnet.Path{s}, m, meet), cost, true
}

// AppendRoute is Route writing into a caller-owned buffer: the path is
// appended to dst (returned unchanged when d is unreachable), so a
// caller that only inspects each path before the next query allocates
// nothing per query.
func (q *MetricQuery) AppendRoute(dst roadnet.Path, m *Metric, s, d roadnet.VertexID) (roadnet.Path, float64, bool) {
	cost, meet, ok := q.run(m, int32(s), int32(d))
	if !ok {
		return dst, 0, false
	}
	return q.unpackFrom(append(dst, s), m, meet), cost, true
}

// unpackFrom appends the last search's path, after its source vertex
// (already path's last element), through the meeting vertex to the
// destination.
func (q *MetricQuery) unpackFrom(path roadnet.Path, m *Metric, meet int32) roadnet.Path {
	// Forward chain: walk parents from the meeting vertex back to s,
	// then unpack in travel order. Each forward step parent→v travels
	// the arc's up direction (the parent owns the arc).
	q.chain = q.chain[:0]
	for v := meet; q.fwd.parent[v] >= 0; v = q.fwd.parent[v] {
		q.chain = append(q.chain, cchLink{parent: q.fwd.parent[v], v: v, k: q.fwd.parc[v]})
	}
	for i := len(q.chain) - 1; i >= 0; i-- {
		l := q.chain[i]
		path = q.unpack(m, path, l.parent, l.v, l.k, true)
	}
	// Backward chain: from the meeting vertex, each parent step v→parent
	// is the actual travel direction toward d and runs the arc downward
	// (the parent owns the arc; travel descends to it).
	for v := meet; q.bwd.parent[v] >= 0; v = q.bwd.parent[v] {
		path = q.unpack(m, path, v, q.bwd.parent[v], q.bwd.parc[v], false)
	}
	return path
}

// unpack appends the vertices of the (possibly shortcut) arc traveled
// from → to after the current last path vertex, excluding `from` itself.
// up says whether travel runs the arc's up direction (from is the
// lower-ranked owner). In either direction the recursion descends to the
// contracted middle vertex: from→via runs down into it, via→to runs up
// out of it, because the middle outranks neither endpoint.
func (q *MetricQuery) unpack(m *Metric, path roadnet.Path, from, to, k int32, up bool) roadnet.Path {
	via := m.viaDown[k]
	if up {
		via = m.viaUp[k]
	}
	if via < 0 {
		return append(path, roadnet.VertexID(to))
	}
	k1 := q.t.findArc(via, from)
	k2 := q.t.findArc(via, to)
	if k1 < 0 || k2 < 0 {
		// Should not happen for a well-formed skeleton; degrade to the
		// endpoints so the result remains a vertex sequence.
		return append(path, roadnet.VertexID(via), roadnet.VertexID(to))
	}
	path = q.unpack(m, path, from, via, k1, false)
	return q.unpack(m, path, via, to, k2, true)
}

// run executes the bidirectional upward search over the skeleton: both
// sides relax each vertex's up-arc CSR range, the forward side under
// wUp, the backward side under wDown. Arcs whose customized weight is
// +Inf (unreachable or metric-forbidden) are never relaxed.
func (q *MetricQuery) run(m *Metric, s, d int32) (float64, int32, bool) {
	t := q.t
	q.fwd.reset()
	q.bwd.reset()
	q.fwd.set(s, 0, -1, -1)
	q.bwd.set(d, 0, -1, -1)
	q.fwd.pq.Push(int(s), 0)
	q.bwd.pq.Push(int(d), 0)

	best := math.Inf(1)
	meet := int32(-1)

	relax := func(side, other *cchSide, w []float64) {
		vi, dv := side.pq.Pop()
		v := int32(vi)
		if dv > side.d(v) {
			return
		}
		if od := other.d(v); dv+od < best {
			best = dv + od
			meet = v
		}
		for k := t.upStart[v]; k < t.upStart[v+1]; k++ {
			wk := w[k]
			if math.IsInf(wk, 1) {
				continue
			}
			u := t.upTo[k]
			if nd := dv + wk; nd < side.d(u) {
				side.set(u, nd, v, k)
				side.pq.Push(int(u), nd)
			}
		}
	}

	for q.fwd.pq.Len() > 0 || q.bwd.pq.Len() > 0 {
		minF, minB := math.Inf(1), math.Inf(1)
		if q.fwd.pq.Len() > 0 {
			_, minF = peek(q.fwd.pq)
		}
		if q.bwd.pq.Len() > 0 {
			_, minB = peek(q.bwd.pq)
		}
		if minF >= best && minB >= best {
			break
		}
		if minF <= minB && q.fwd.pq.Len() > 0 {
			relax(&q.fwd, &q.bwd, m.wUp)
		} else if q.bwd.pq.Len() > 0 {
			relax(&q.bwd, &q.fwd, m.wDown)
		}
	}
	if math.IsInf(best, 1) {
		return 0, -1, false
	}
	return best, meet, true
}
