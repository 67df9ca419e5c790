package ch

import (
	"math"

	"repro/internal/roadnet"
)

// MetricQuery is a reusable elimination-tree query context over one
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
	chain    []cchLink    // packed-chain scratch, reused across queries
	path     roadnet.Path // unpack scratch behind Route's one exact-size copy
}

// cchSide is one direction of the query: the labels of one climb.
type cchSide struct {
	dist   []float64
	parent []int32 // parent vertex in the search tree
	parc   []int32 // skeleton arc index used from parent
	// seen[v] == epoch marks v as labelled (finitely) by the current
	// query; anything else is a stale stamp from an earlier one.
	seen  []uint32
	epoch uint32
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
		seen:   make([]uint32, n),
	}
}

// start begins a new query at v. The epoch wraps after 2³² queries; a
// stamp left by the query 2³² ago would then read as live, so on wrap
// the stamps are cleared and the epoch restarts at 1 (0 is the cleared
// state, never a live epoch).
func (s *cchSide) start(v int32) {
	s.epoch++
	if s.epoch == 0 {
		for i := range s.seen {
			s.seen[i] = 0
		}
		s.epoch = 1
	}
	s.seen[v] = s.epoch
	s.dist[v] = 0
	s.parent[v] = -1
	s.parc[v] = -1
}

// relaxUp relaxes v's up-arc range lo..hi under w if v is labelled.
// Arcs whose customized weight is +Inf (unreachable or metric-forbidden)
// are never relaxed, so every label is finite.
func (s *cchSide) relaxUp(upTo []int32, w []float64, v, lo, hi int32) {
	epoch, seen, dist := s.epoch, s.seen, s.dist
	if seen[v] != epoch {
		return
	}
	dv := dist[v]
	upTo, w = upTo[lo:hi], w[lo:hi]
	for i, u := range upTo {
		wk := w[i]
		if wk > math.MaxFloat64 {
			continue
		}
		if nd := dv + wk; seen[u] != epoch || nd < dist[u] {
			seen[u] = epoch
			dist[u] = nd
			s.parent[u] = v
			s.parc[u] = lo + int32(i)
		}
	}
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
// fully unpacked to original road-network vertices. The path is a fresh
// exact-size slice the caller owns: it is unpacked into query-owned
// scratch and copied out once.
func (q *MetricQuery) Route(m *Metric, s, d roadnet.VertexID) (roadnet.Path, float64, bool) {
	buf, cost, ok := q.AppendRoute(q.path[:0], m, s, d)
	q.path = buf
	if !ok {
		return nil, 0, false
	}
	out := make(roadnet.Path, len(buf))
	copy(out, buf)
	return out, cost, true
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

// run is the elimination-tree query. Each up-arc range is sorted by
// rank, so a vertex's first up-arc leads to its elimination-tree parent
// and all its up-neighbours are ancestors: everything an upward search
// from s can ever reach lies on the one chain from s to its root, in
// rank order. The forward side climbs s's chain relaxing wUp, the
// backward side d's chain relaxing wDown — no priority queue, and no
// stopping criterion, because the chain is about as long as what a
// queue-driven search settles before it may stop. A vertex without a
// label is still climbed through: its ancestors may be labelled over
// other arcs (one-way streets, masked metrics). The chain ends at a
// vertex with no up-arcs, the root of its tree; a disconnected network
// is a forest, and two chains in different trees never meet.
//
// Both sides are labelled only on common ancestors, which d's climb
// visits in the same order as s's; the meeting vertex is the first of
// them, in that order, to attain the minimum of fwd.dist + bwd.dist.
func (q *MetricQuery) run(m *Metric, s, d int32) (float64, int32, bool) {
	fwd, bwd := &q.fwd, &q.bwd
	upStart, upTo := q.t.upStart, q.t.upTo
	fwd.start(s)
	for v := s; ; {
		lo, hi := upStart[v], upStart[v+1]
		if lo == hi {
			break
		}
		fwd.relaxUp(upTo, m.wUp, v, lo, hi)
		v = upTo[lo]
	}

	best := math.Inf(1)
	meet := int32(-1)
	bwd.start(d)
	for v := d; ; {
		// v's backward label is final here: every arc into it was
		// relaxed from a vertex lower on the chain.
		if bwd.seen[v] == bwd.epoch && fwd.seen[v] == fwd.epoch {
			if c := fwd.dist[v] + bwd.dist[v]; c < best {
				best, meet = c, v
			}
		}
		lo, hi := upStart[v], upStart[v+1]
		if lo == hi {
			break
		}
		bwd.relaxUp(upTo, m.wDown, v, lo, hi)
		v = upTo[lo]
	}
	if meet < 0 {
		return 0, -1, false
	}
	return best, meet, true
}
