package ch

import (
	"fmt"
	"math"

	"repro/internal/container"
	"repro/internal/roadnet"
)

// ReferenceQuery is the priority-queue query MetricQuery ran before it
// became an elimination-tree climb, kept as the test-only
// reference: a bidirectional upward Dijkstra over the skeleton with the
// classic stopping criterion, its own labels, and the rank-keyed binary
// search for unpacking through a RefMetric's middle vertices.
// TestElimTreeMatchesReference holds the climb over a Metric to it over
// the RefMetric CustomizeReference makes for the same cost, bit for bit
// — cost and path — so "the same paths" is a checked statement, not a
// hope about ties.
type ReferenceQuery struct {
	t        *Topology
	fwd, bwd refSide
}

type refSide struct {
	dist   []float64
	parent []int32
	parc   []int32
	seen   []int32
	epoch  int32
	pq     *container.IndexedMinHeap
}

func newRefSide(n int) refSide {
	return refSide{
		dist:   make([]float64, n),
		parent: make([]int32, n),
		parc:   make([]int32, n),
		seen:   make([]int32, n),
		pq:     container.NewIndexedMinHeap(n),
	}
}

func (s *refSide) reset() {
	s.epoch++
	s.pq.Reset()
}

func (s *refSide) d(v int32) float64 {
	if s.seen[v] != s.epoch {
		return math.Inf(1)
	}
	return s.dist[v]
}

func (s *refSide) set(v int32, d float64, parent, k int32) {
	s.seen[v] = s.epoch
	s.dist[v] = d
	s.parent[v] = parent
	s.parc[v] = k
}

// NewReferenceQuery allocates a reference query context for t.
func NewReferenceQuery(t *Topology) *ReferenceQuery {
	n := len(t.rank)
	return &ReferenceQuery{t: t, fwd: newRefSide(n), bwd: newRefSide(n)}
}

// Cost is the reference MetricQuery.Cost.
func (q *ReferenceQuery) Cost(m *RefMetric, s, d roadnet.VertexID) (float64, bool) {
	c, _, ok := q.run(m, int32(s), int32(d))
	return c, ok
}

// Route is the reference MetricQuery.Route.
func (q *ReferenceQuery) Route(m *RefMetric, s, d roadnet.VertexID) (roadnet.Path, float64, bool) {
	cost, meet, ok := q.run(m, int32(s), int32(d))
	if !ok {
		return nil, 0, false
	}
	path := roadnet.Path{s}
	var chain []int32
	for v := meet; q.fwd.parent[v] >= 0; v = q.fwd.parent[v] {
		chain = append(chain, v)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		v := chain[i]
		path = q.unpack(m, path, q.fwd.parent[v], v, q.fwd.parc[v], true)
	}
	for v := meet; q.bwd.parent[v] >= 0; v = q.bwd.parent[v] {
		path = q.unpack(m, path, v, q.bwd.parent[v], q.bwd.parc[v], false)
	}
	return path, cost, true
}

func (q *ReferenceQuery) unpack(m *RefMetric, path roadnet.Path, from, to, k int32, up bool) roadnet.Path {
	via := m.viaDown[k]
	if up {
		via = m.viaUp[k]
	}
	if via < 0 {
		return append(path, roadnet.VertexID(to))
	}
	k1 := q.findArc(via, from)
	k2 := q.findArc(via, to)
	if k1 < 0 || k2 < 0 {
		panic(fmt.Sprintf("reference: arc %d (%d-%d) has middle vertex %d but no arc to it from both ends", k, from, to, via))
	}
	path = q.unpack(m, path, from, via, k1, false)
	return q.unpack(m, path, via, to, k2, true)
}

// findArc is the binary search over lo's rank-sorted up-arc range.
func (q *ReferenceQuery) findArc(lo, hi int32) int32 {
	t := q.t
	i, j := t.upStart[lo], t.upStart[lo+1]
	rh := t.rank[hi]
	for i < j {
		mid := (i + j) / 2
		if t.rank[t.upTo[mid]] < rh {
			i = mid + 1
		} else {
			j = mid
		}
	}
	if i < t.upStart[lo+1] && t.upTo[i] == hi {
		return i
	}
	return -1
}

func (q *ReferenceQuery) run(m *RefMetric, s, d int32) (float64, int32, bool) {
	t := q.t
	q.fwd.reset()
	q.bwd.reset()
	q.fwd.set(s, 0, -1, -1)
	q.bwd.set(d, 0, -1, -1)
	q.fwd.pq.Push(int(s), 0)
	q.bwd.pq.Push(int(d), 0)

	best := math.Inf(1)
	meet := int32(-1)

	relax := func(side, other *refSide, w []float64) {
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
