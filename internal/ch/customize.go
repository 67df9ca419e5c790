package ch

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/roadnet"
)

// Metric is one customization of a Topology: per-skeleton-arc weights
// for a specific edge-cost function, in both directions, and one byte
// per arc and direction naming the lower triangle that set the weight.
// wUp[k] is the cost of traveling arc k from its lower-ranked owner to
// the higher endpoint, wDown[k] the reverse. midUp[k]/midDown[k] is the
// respective direction's middle code, which path unpacking recurses on:
//
//   - 0: the weight is the original road edge's (or +Inf, none);
//   - c in 1..254: the weight is the sum over triangle c-1 of arc k's
//     list in the topology's triangle table;
//   - 255 (escape): the winning triangle sits at index 254 or later,
//     and is the first from there whose sum equals the weight.
//
// 18 bytes per arc: the weights and two codes. The triangle table is
// the topology's, shared by every metric customized from it.
//
// A Metric is immutable once Customize or CustomizeAll returns it and
// safe for concurrent queries; a new metric version is customized
// fresh and swapped in by pointer, which is what route.CHEngine does.
type Metric struct {
	t              *Topology
	wUp, wDown     []float64
	midUp, midDown []uint8
}

// escape is the middle code of a shortcut whose winning triangle's
// index in its arc's list does not fit in a code: escape-1 or more.
const escape = 255

// Customize computes every shortcut weight of a fresh metric for the
// given non-negative edge-cost function, without re-contracting. Arcs
// are seeded from the original road edges they cover (+Inf where none
// exists or the cost function forbids the edge); then, with owners in
// ascending rank order, each arc is relaxed through its lower
// triangles, in the table's order. A triangle's two other arcs are
// owned by its middle vertex, which is outranked by the arc's owner, so
// they are final by then. The first strict improvement wins a tie.
func (t *Topology) Customize(cost func(roadnet.EdgeID) float64) *Metric {
	n := len(t.upTo)
	m := &Metric{
		t:       t,
		wUp:     make([]float64, n),
		wDown:   make([]float64, n),
		midUp:   make([]uint8, n),
		midDown: make([]uint8, n),
	}
	inf := math.Inf(1)
	wUp, wDown, midUp, midDown := m.wUp, m.wDown, m.midUp, m.midDown
	for k := range wUp {
		wUp[k], wDown[k] = inf, inf
		if e := t.origUp[k]; e >= 0 {
			wUp[k] = cost(roadnet.EdgeID(e))
		}
		if e := t.origDown[k]; e >= 0 {
			wDown[k] = cost(roadnet.EdgeID(e))
		}
	}
	upStart, triStart, tris := t.upStart, t.triStart, t.tris
	for _, b := range t.order {
		for k := upStart[b]; k < upStart[b+1]; k++ {
			up, down := wUp[k], wDown[k]
			var cUp, cDown uint8
			for x, tr := range tris[triStart[k]:triStart[k+1]] {
				// b1 → a → b2 improves the up direction of {b1, b2};
				// b2 → a → b1 the down direction.
				if w := wDown[tr.i] + wUp[tr.j]; w < up {
					up, cUp = w, uint8(min(x+1, escape))
				}
				if w := wDown[tr.j] + wUp[tr.i]; w < down {
					down, cDown = w, uint8(min(x+1, escape))
				}
			}
			wUp[k], wDown[k], midUp[k], midDown[k] = up, down, cUp, cDown
		}
	}
	return m
}

// CustomizeAll customizes one fresh metric per cost function. Metrics
// are independent, so they are handed out whole to min(len(costs),
// GOMAXPROCS) goroutines; one metric is customized inline. Each comes
// out bit for bit as Customize alone makes it. The cost functions may
// be called concurrently.
func (t *Topology) CustomizeAll(costs []func(roadnet.EdgeID) float64) []*Metric {
	ms := make([]*Metric, len(costs))
	workers := min(len(costs), runtime.GOMAXPROCS(0))
	if workers <= 1 {
		for x, cost := range costs {
			ms[x] = t.Customize(cost)
		}
		return ms
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for x := int(next.Add(1) - 1); x < len(costs); x = int(next.Add(1) - 1) {
				ms[x] = t.Customize(costs[x])
			}
		}()
	}
	wg.Wait()
	return ms
}

// middleSlow returns the lower triangle that set arc k's weight in the
// given direction for a code unpack does not read from the table: the
// escape, or one naming no triangle of arc k, which cannot come out of
// Customize and panics.
func (m *Metric) middleSlow(k int32, code uint8, up bool) triangle {
	t := m.t
	tris := t.tris[t.triStart[k]:t.triStart[k+1]]
	w := m.wDown[k]
	if up {
		w = m.wUp[k]
	}
	if code == escape && len(tris) >= escape {
		for _, tr := range tris[escape-1:] {
			i, j := tr.i, tr.j
			if !up {
				i, j = j, i
			}
			if m.wDown[i]+m.wUp[j] == w {
				return tr
			}
		}
	}
	panic(fmt.Sprintf("ch: arc %d (%d triangles) has middle code %d but no lower triangle summing to its weight %v", k, len(tris), code, w))
}

// Bytes returns the heap bytes of the metric's own arrays: 18 per
// skeleton arc. The topology it indexes is shared and not counted.
func (m *Metric) Bytes() int {
	return 8*(len(m.wUp)+len(m.wDown)) + len(m.midUp) + len(m.midDown)
}

// Topology returns the skeleton this metric customizes.
func (m *Metric) Topology() *Topology { return m.t }
