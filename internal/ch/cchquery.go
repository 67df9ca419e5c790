package ch

import (
	"math"
	"math/bits"

	"repro/internal/roadnet"
)

// MetricQuery is a reusable elimination-tree query context over one
// Topology, serving any Metric customized from it: the metric is a
// per-call argument, so one query context (and its per-vertex arrays)
// amortizes across every metric a fork routes on. Buffers are allocated
// once and recycled across queries: a query resets the labels of the
// two chains it climbed, not O(|V|) of them, before it returns.
//
// A MetricQuery is not safe for concurrent use; create one per
// goroutine (route.CHEngine keeps one per fork).
type MetricQuery struct {
	t        *Topology
	fwd, bwd cchSide
	chain    []int32      // forward search-tree scratch, reused across queries
	path     roadnet.Path // unpack scratch behind Route's one exact-size copy
}

// cchSide is one direction of the query: the labels of one climb. dist
// is +Inf between queries; parc[v] is the arc a finite dist[v] was set
// over, whose owner lowOf[parc[v]] is v's parent (-1 at the start).
type cchSide struct {
	dist []float64
	parc []int32
}

func newCCHSide(n int) cchSide {
	s := cchSide{dist: make([]float64, n), parc: make([]int32, n)}
	for i := range s.dist {
		s.dist[i] = math.Inf(1)
	}
	return s
}

// relaxUp relaxes v's up-arc range lo..hi under w if v is labelled. A
// +Inf arc (unreachable or metric-forbidden) improves no label.
func (s *cchSide) relaxUp(upTo []int32, w []float64, v, lo, hi int32) {
	dist := s.dist
	dv := dist[v]
	if dv > math.MaxFloat64 {
		return
	}
	upTo = upTo[lo:hi]
	w = w[lo:][:len(upTo)]
	for i, u := range upTo {
		if nd := dv + w[i]; nd < dist[u] {
			dist[u] = nd
			s.parc[u] = lo + int32(i)
		}
	}
}

// relaxMasked is relaxUp on a masked metric, whose arrays w are its
// master's, read through its delta d a bitmap word at a time, from a
// finite label dv (the caller skips unlabelled vertices). Of the word's
// arcs in lo..hi, those d makes +Inf are skipped, its exceptions
// relaxed at their packed weights, which are consecutive there (an
// exception is never +Inf), and the rest at the master's weights. Each
// arc leads to a different vertex, so the order is free.
func (s *cchSide) relaxMasked(upTo []int32, w []float64, d *delta, dv float64, lo, hi int32) {
	dist, parc := s.dist, s.parc
	for word := lo >> 6; word<<6 < hi; word++ {
		base, marks := word<<6, d.marks[3*word:3*word+3:3*word+3]
		live, exc := ^marks[0], marks[1]
		if lo > base {
			live &= ^uint64(0) << (lo - base)
		}
		if hi-base < 64 {
			live &= uint64(1)<<(hi-base) - 1
		}
		for as := live &^ exc; as != 0; as &= as - 1 {
			k := base + int32(bits.TrailingZeros64(as))
			if u, nd := upTo[k], dv+w[k]; nd < dist[u] {
				dist[u], parc[u] = nd, k
			}
		}
		if own := live & exc; own != 0 {
			x := int32(marks[2]) + int32(bits.OnesCount64(exc&(own&-own-1)))
			for ; own != 0; own &= own - 1 {
				k := base + int32(bits.TrailingZeros64(own))
				if u, nd := upTo[k], dv+d.w[x]; nd < dist[u] {
					dist[u], parc[u] = nd, k
				}
				x++
			}
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
	fparc, bparc, lowOf := q.fwd.parc, q.bwd.parc, q.t.lowOf
	q.chain = q.chain[:0]
	for v := meet; fparc[v] >= 0; v = lowOf[fparc[v]] {
		q.chain = append(q.chain, v)
	}
	for i := len(q.chain) - 1; i >= 0; i-- {
		v := q.chain[i]
		path = q.unpack(m, path, lowOf[fparc[v]], v, fparc[v], true)
	}
	// Backward chain: from the meeting vertex, each parent step v→parent
	// is the actual travel direction toward d and runs the arc downward
	// (the parent owns the arc; travel descends to it).
	for v := meet; bparc[v] >= 0; v = lowOf[bparc[v]] {
		path = q.unpack(m, path, v, lowOf[bparc[v]], bparc[v], false)
	}
	return path
}

// unpack appends the vertices of the (possibly shortcut) arc traveled
// from → to after the current last path vertex, excluding `from` itself.
// up says whether travel runs the arc's up direction (from is the
// lower-ranked owner). A shortcut's middle code names its winning lower
// triangle {a; b1, b2} in the topology's table (middleSlow resolves the
// escape), whose arcs i = {a, b1} and j = {a, b2} are a's; the
// recursion descends to a: from→a runs down into it, a→to runs up out
// of it, because a outranks neither endpoint.
func (q *MetricQuery) unpack(m *Metric, path roadnet.Path, from, to, k int32, up bool) roadnet.Path {
	code := m.midDown[k]
	if up {
		code = m.midUp[k]
	}
	if m.up.masked() {
		code = m.code(k, up)
	}
	if code == 0 {
		return append(path, roadnet.VertexID(to))
	}
	t := q.t
	var tr triangle
	if x := t.triStart[k] + int32(code) - 1; code < escape && x < t.triStart[k+1] {
		tr = t.tris[x]
	} else {
		tr = m.middleSlow(k, code, up)
	}
	via, k1, k2 := t.lowOf[tr.i], tr.i, tr.j // from = b1, to = b2
	if !up {
		k1, k2 = k2, k1
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
// Only the chains are labelled, so run puts every dist back to +Inf
// before it returns: each backward label once d's climb has passed it,
// then s's chain. parc keeps the search trees for unpacking.
func (q *MetricQuery) run(m *Metric, s, d int32) (float64, int32, bool) {
	if m.up.masked() {
		return q.runMasked(m, s, d)
	}
	fwd, bwd := &q.fwd, &q.bwd
	upStart, upTo := q.t.upStart, q.t.upTo
	// Index both ends before labelling either: an out-of-range vertex
	// then panics with every label still +Inf.
	_, _ = fwd.dist[s], bwd.dist[d]
	fwd.dist[s], fwd.parc[s] = 0, -1
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
	bwd.dist[d], bwd.parc[d] = 0, -1
	for v := d; ; {
		// v's backward label is final here: every arc into it was
		// relaxed from a vertex lower on the chain.
		if c := fwd.dist[v] + bwd.dist[v]; c < best {
			best, meet = c, v
		}
		lo, hi := upStart[v], upStart[v+1]
		bwd.relaxUp(upTo, m.wDown, v, lo, hi)
		bwd.dist[v] = math.Inf(1)
		if lo == hi {
			break
		}
		v = upTo[lo]
	}
	for v := s; ; v = upTo[upStart[v]] {
		fwd.dist[v] = math.Inf(1)
		if upStart[v] == upStart[v+1] {
			break
		}
	}
	if meet < 0 {
		return 0, -1, false
	}
	return best, meet, true
}

// runMasked is run on a masked metric: the same climbs, relaxing each
// vertex's up-arcs through relaxMasked. It is run's twin rather than a
// branch inside run's loops, which slowed the dense climb.
func (q *MetricQuery) runMasked(m *Metric, s, d int32) (float64, int32, bool) {
	fwd, bwd := &q.fwd, &q.bwd
	upStart, upTo := q.t.upStart, q.t.upTo
	// Index both ends before labelling either: an out-of-range vertex
	// then panics with every label still +Inf.
	_, _ = fwd.dist[s], bwd.dist[d]
	fwd.dist[s], fwd.parc[s] = 0, -1
	for v := s; ; {
		lo, hi := upStart[v], upStart[v+1]
		if lo == hi {
			break
		}
		if dv := fwd.dist[v]; dv <= math.MaxFloat64 {
			fwd.relaxMasked(upTo, m.wUp, &m.up, dv, lo, hi)
		}
		v = upTo[lo]
	}

	best := math.Inf(1)
	meet := int32(-1)
	bwd.dist[d], bwd.parc[d] = 0, -1
	for v := d; ; {
		// v's backward label is final here: every arc into it was
		// relaxed from a vertex lower on the chain.
		if c := fwd.dist[v] + bwd.dist[v]; c < best {
			best, meet = c, v
		}
		lo, hi := upStart[v], upStart[v+1]
		if dv := bwd.dist[v]; dv <= math.MaxFloat64 {
			bwd.relaxMasked(upTo, m.wDown, &m.down, dv, lo, hi)
		}
		bwd.dist[v] = math.Inf(1)
		if lo == hi {
			break
		}
		v = upTo[lo]
	}
	for v := s; ; v = upTo[upStart[v]] {
		fwd.dist[v] = math.Inf(1)
		if upStart[v] == upStart[v+1] {
			break
		}
	}
	if meet < 0 {
		return 0, -1, false
	}
	return best, meet, true
}
