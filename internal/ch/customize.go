package ch

import (
	"math"

	"repro/internal/roadnet"
)

// Metric is one customization of a Topology: per-skeleton-arc weights
// for a specific edge-cost function, in both directions. wUp[k] is the
// cost of traveling arc k from its lower-ranked owner to the higher
// endpoint, wDown[k] the reverse; viaUp/viaDown record the contracted
// middle vertex when the respective direction is a shortcut (-1 when it
// is the original road edge), which path unpacking recurses on.
//
// A Metric is immutable once Customize or CustomizeAll returns it and
// safe for concurrent queries; a new metric version is customized
// fresh and swapped in by pointer, which is what route.CHEngine does.
type Metric struct {
	t              *Topology
	wUp, wDown     []float64
	viaUp, viaDown []int32
}

// newMetric allocates an uncustomized metric over t.
func (t *Topology) newMetric() *Metric {
	m := len(t.upTo)
	return &Metric{
		t:       t,
		wUp:     make([]float64, m),
		wDown:   make([]float64, m),
		viaUp:   make([]int32, m),
		viaDown: make([]int32, m),
	}
}

// Customize computes every shortcut weight of a fresh metric for the
// given non-negative edge-cost function, without re-contracting: the
// one-metric batch of CustomizeAll.
func (t *Topology) Customize(cost func(roadnet.EdgeID) float64) *Metric {
	ms, costs := [1]*Metric{t.newMetric()}, [1]func(roadnet.EdgeID) float64{cost}
	t.customize(ms[:], costs[:])
	return ms[0]
}

// CustomizeAll builds one fresh metric per cost function and customizes
// them all in one sweep over the skeleton's lower triangles: each
// triangle is enumerated, and its third arc found, once for every
// metric, where customizing them one by one would repeat both per
// metric. Each metric comes out bit for bit as Customize alone makes it.
func (t *Topology) CustomizeAll(costs []func(roadnet.EdgeID) float64) []*Metric {
	ms := make([]*Metric, len(costs))
	for i := range ms {
		ms[i] = t.newMetric()
	}
	t.customize(ms, costs)
	return ms
}

// triangle is one lower triangle {a; b1, b2} as the CSR indexes of its
// arcs: i = {a, b1}, j = {a, b2} and k = {b1, b2}.
type triangle struct{ i, j, k int32 }

// customize gives ms[x] the weights of costs[x]. Arcs are seeded from
// the original road edges they cover (+Inf where none exists or the
// cost function forbids the edge); then, in ascending rank order of a,
// each lower triangle {a; b1, b2} relaxes arc {b1, b2} through a, so by
// the time a vertex's triangles are processed its own arcs are final.
// A vertex's triangles are listed once and then relaxed metric by
// metric: their writes land in the up-ranges of a's up-neighbours and
// their reads in a's own, so per metric the order is the one a single
// sweep takes. Arc {b1, b2} is found by walking b1's rank-sorted
// up-range forward as b2 advances through a's; contracting a made b1
// and b2 adjacent, but a missing arc is skipped.
func (t *Topology) customize(ms []*Metric, costs []func(roadnet.EdgeID) float64) {
	if len(ms) == 0 {
		return
	}
	inf := math.Inf(1)
	for x, m := range ms {
		cost := costs[x]
		for k := range m.wUp {
			m.wUp[k], m.viaUp[k] = inf, -1
			m.wDown[k], m.viaDown[k] = inf, -1
			if e := t.origUp[k]; e >= 0 {
				m.wUp[k] = cost(roadnet.EdgeID(e))
			}
			if e := t.origDown[k]; e >= 0 {
				m.wDown[k] = cost(roadnet.EdgeID(e))
			}
		}
	}
	// Up to 11 up-neighbours (55 triangles) list on the stack; append
	// moves a larger vertex's triangles to the heap.
	var buf [64]triangle
	tris := buf[:0]
	for _, a := range t.order {
		lo, hi := t.upStart[a], t.upStart[a+1]
		tris = tris[:0]
		for i := lo; i < hi; i++ {
			b1 := t.upTo[i]
			k, end := t.upStart[b1], t.upStart[b1+1]
			for j := i + 1; j < hi && k < end; j++ {
				// rank(b1) < rank(b2): the arc {b1, b2} is owned by b1.
				b2 := t.upTo[j]
				for rb2 := t.rank[b2]; k < end && t.rank[t.upTo[k]] < rb2; k++ {
				}
				if k < end && t.upTo[k] == b2 {
					tris = append(tris, triangle{i, j, k})
				}
			}
		}
		for _, m := range ms {
			wUp, wDown, viaUp, viaDown := m.wUp, m.wDown, m.viaUp, m.viaDown
			for _, tr := range tris {
				// b1 → a → b2 improves the up direction of {b1, b2};
				// b2 → a → b1 the down direction.
				if w := wDown[tr.i] + wUp[tr.j]; w < wUp[tr.k] {
					wUp[tr.k], viaUp[tr.k] = w, a
				}
				if w := wDown[tr.j] + wUp[tr.i]; w < wDown[tr.k] {
					wDown[tr.k], viaDown[tr.k] = w, a
				}
			}
		}
	}
}

// Topology returns the skeleton this metric customizes.
func (m *Metric) Topology() *Topology { return m.t }
