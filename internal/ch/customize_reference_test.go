package ch

import (
	"fmt"
	"math"

	"repro/internal/roadnet"
)

// RefMetric is a metric in the layout Metric had before the triangle
// table, kept test-only: a middle vertex per arc and direction (-1 for
// the original road edge) instead of a code into the table.
type RefMetric struct {
	t              *Topology
	wUp, wDown     []float64
	viaUp, viaDown []int32
}

// CustomizeReference is Topology.Customize as it was before the
// triangle table, kept as the test-only reference Customize and
// CustomizeAll are held to: one sweep over the contracted vertices in
// rank order, each lower triangle {a; b1, b2} enumerated from a's
// up-arcs and its arc {b1, b2} found by findArc, recording a as the
// middle vertex of each direction it improves.
func (t *Topology) CustomizeReference(cost func(roadnet.EdgeID) float64) *RefMetric {
	n := len(t.upTo)
	m := &RefMetric{t: t, wUp: make([]float64, n), wDown: make([]float64, n), viaUp: make([]int32, n), viaDown: make([]int32, n)}
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
	for _, a := range t.order {
		lo, hi := t.upStart[a], t.upStart[a+1]
		for i := lo; i < hi; i++ {
			b1 := t.upTo[i]
			for j := i + 1; j < hi; j++ {
				b2 := t.upTo[j]
				k := t.findArc(b1, b2)
				if k < 0 {
					panic(fmt.Sprintf("reference: up-neighbours %d and %d of vertex %d are not adjacent", b1, b2, a))
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

// findArc returns the CSR index of the skeleton arc between lo (the
// lower-ranked owner) and hi, or -1 when there is none: a linear scan
// of lo's up-arc range.
func (t *Topology) findArc(lo, hi int32) int32 {
	for k := t.upStart[lo]; k < t.upStart[lo+1]; k++ {
		if t.upTo[k] == hi {
			return k
		}
	}
	return -1
}

// Arrays returns the reference metric's per-arc weights and middle
// vertices.
func (m *RefMetric) Arrays() (wUp, wDown []float64, viaUp, viaDown []int32) {
	return m.wUp, m.wDown, m.viaUp, m.viaDown
}

// Weights returns the metric's per-arc weights; a masked metric's are
// expanded from its master's and its delta.
func (m *Metric) Weights() (wUp, wDown []float64) {
	n := len(m.wUp)
	wUp, wDown = make([]float64, n), make([]float64, n)
	for k := range int32(n) {
		wUp[k], wDown[k] = m.weight(k, true), m.weight(k, false)
	}
	return wUp, wDown
}

// Codes returns the metric's per-arc middle codes, expanded as Weights
// expands the weights.
func (m *Metric) Codes() (midUp, midDown []uint8) {
	n := len(m.wUp)
	midUp, midDown = make([]uint8, n), make([]uint8, n)
	for k := range int32(n) {
		midUp[k], midDown[k] = m.code(k, true), m.code(k, false)
	}
	return midUp, midDown
}

// Masked reports whether m is stored as a delta against a master.
func (m *Metric) Masked() bool { return m.up.masked() }

// Middles resolves every middle code to the vertex it names, in the
// reference layout: -1 for code 0, else the winning triangle's middle
// vertex, found as unpack finds it.
func (m *Metric) Middles() (viaUp, viaDown []int32) {
	t, n := m.t, len(m.wUp)
	via := func(k int32, c uint8, up bool) int32 {
		if x := t.triStart[k] + int32(c) - 1; c < escape && x < t.triStart[k+1] {
			return t.lowOf[t.tris[x].i]
		}
		return t.lowOf[m.middleSlow(k, c, up).i]
	}
	viaUp, viaDown = make([]int32, n), make([]int32, n)
	for k := range int32(n) {
		viaUp[k], viaDown[k] = -1, -1
		if c := m.code(k, true); c != 0 {
			viaUp[k] = via(k, c, true)
		}
		if c := m.code(k, false); c != 0 {
			viaDown[k] = via(k, c, false)
		}
	}
	return viaUp, viaDown
}
