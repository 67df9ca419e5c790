package ch

import (
	"math"

	"repro/internal/roadnet"
)

// CustomizeReference is Topology.Customize as it was before the batched
// sweep, kept as the test-only reference CustomizeAll is held to: one
// metric per sweep, arc {b1, b2} of each lower triangle found by
// findArc.
func (t *Topology) CustomizeReference(cost func(roadnet.EdgeID) float64) *Metric {
	m := t.newMetric()
	inf := math.Inf(1)
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
	n := len(t.rank)
	for ri := 0; ri < n; ri++ {
		a := t.order[ri]
		lo, hi := t.upStart[a], t.upStart[a+1]
		for i := lo; i < hi; i++ {
			b1 := t.upTo[i]
			for j := i + 1; j < hi; j++ {
				b2 := t.upTo[j]
				k := t.findArc(b1, b2)
				if k < 0 {
					continue
				}
				if w := m.wDown[i] + m.wUp[j]; w < m.wUp[k] {
					m.wUp[k], m.viaUp[k] = w, a
				}
				if w := m.wDown[j] + m.wUp[i]; w < m.wDown[k] {
					m.wDown[k], m.viaDown[k] = w, a
				}
			}
		}
	}
	return m
}

// Arrays returns the metric's per-arc weights and middle vertices.
func (m *Metric) Arrays() (wUp, wDown []float64, viaUp, viaDown []int32) {
	return m.wUp, m.wDown, m.viaUp, m.viaDown
}
