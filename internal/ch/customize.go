package ch

import (
	"fmt"
	"math"
	"math/bits"
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
// A dense metric owns those arrays: 18 bytes per arc, the weights and
// two codes. A masked metric, customized against a master (CustomizeAll;
// route.CHEngine's ⟨w, mask⟩ against ⟨w, –⟩), shares its master's
// arrays and keeps only a delta per direction: the arcs it makes +Inf,
// and the other arcs whose weight or code differs, with their values
// (see delta). The triangle table is the topology's, shared by every
// metric customized from it.
//
// A Metric is immutable once Customize or CustomizeAll returns it and
// safe for concurrent queries; a new metric version is customized
// fresh and swapped in by pointer, which is what route.CHEngine does.
type Metric struct {
	t              *Topology
	wUp, wDown     []float64 // a masked metric's are its master's
	midUp, midDown []uint8   // likewise
	up, down       delta     // empty on a dense metric
}

// delta is one direction of a masked metric against its master's
// arrays, in three words per 64 arcs: marks[3x] holds the inf bits of
// arcs 64x..64x+63, marks[3x+1] their exc bits and marks[3x+2] the
// number of exc bits in the words before (a rank directory). An inf bit
// says the arc is +Inf here (with code 0, as every +Inf arc has) and
// finite in the master; an exc bit says the arc is finite here and its
// weight or code differs from the master's. The exceptions' weights and
// codes are packed in arc order: arc k's sit at its word's rank plus
// the exc bits below k in the word. Every other arc reads the master's
// weight and code.
type delta struct {
	marks []uint64
	w     []float64
	mid   []uint8
}

// masked reports whether d belongs to a masked metric.
func (d *delta) masked() bool { return d.marks != nil }

// at returns whether arc k is +Inf under d and, when it is an
// exception, its index into d.w and d.mid (else -1). A dense metric's
// empty delta overrides nothing.
func (d *delta) at(k int32) (inf bool, x int32) {
	if !d.masked() {
		return false, -1
	}
	word, bit := d.marks[3*(k>>6):3*(k>>6)+3:3*(k>>6)+3], uint64(1)<<(k&63)
	if word[0]&bit != 0 {
		return true, -1
	}
	if e := word[1]; e&bit != 0 {
		return false, int32(word[2]) + int32(bits.OnesCount64(e&(bit-1)))
	}
	return false, -1
}

func (d *delta) bytes() int {
	return 8*(len(d.marks)+len(d.w)) + len(d.mid)
}

// weight returns arc k's weight in the given direction.
func (m *Metric) weight(k int32, up bool) float64 {
	w, d := m.wDown, &m.down
	if up {
		w, d = m.wUp, &m.up
	}
	switch inf, x := d.at(k); {
	case inf:
		return math.Inf(1)
	case x >= 0:
		return d.w[x]
	}
	return w[k]
}

// code returns arc k's middle code in the given direction.
func (m *Metric) code(k int32, up bool) uint8 {
	mid, d := m.midDown, &m.down
	if up {
		mid, d = m.midUp, &m.up
	}
	switch inf, x := d.at(k); {
	case inf:
		return 0
	case x >= 0:
		return d.mid[x]
	}
	return mid[k]
}

// escape is the middle code of a shortcut whose winning triangle's
// index in its arc's list does not fit in a code: escape-1 or more.
const escape = 255

// Customize computes every shortcut weight of a fresh dense metric for
// the given non-negative edge-cost function, without re-contracting.
// Arcs are seeded from the original road edges they cover (+Inf where
// none exists or the cost function forbids the edge); then, with owners
// in ascending rank order, each arc is relaxed through its lower
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
	t.sweep(cost, m.wUp, m.wDown, m.midUp, m.midDown, nil)
	return m
}

// scratch is the dense arrays a masked customization sweeps in: both
// directions' weights and codes, sized for the largest topology it has
// served. Customizations one after another, on a worker or on ingests,
// reuse one from scratchPool.
type scratch struct {
	w   []float64
	mid []uint8
}

var scratchPool sync.Pool // *scratch

// customizeOver customizes cost as a masked metric against master:
// Customize's sweep, run in a pooled scratch, marks each owner's arcs
// where they differ from master as it finishes them, and the
// exceptions are then packed from their bitmaps.
func (t *Topology) customizeOver(master *Metric, cost func(roadnet.EdgeID) float64) *Metric {
	n := len(t.upTo)
	s, _ := scratchPool.Get().(*scratch)
	if s == nil || len(s.w) < 2*n {
		s = &scratch{make([]float64, 2*n), make([]uint8, 2*n)}
	}
	defer scratchPool.Put(s)
	wUp, wDown, midUp, midDown := s.w[:n:n], s.w[n:2*n], s.mid[:n:n], s.mid[n:2*n]
	m := &Metric{t: t, wUp: master.wUp, wDown: master.wDown, midUp: master.midUp, midDown: master.midDown}
	words := 3 * ((n + 63) / 64)
	marks := make([]uint64, 2*words)
	m.up.marks, m.down.marks = marks[:words:words], marks[words:]
	t.sweep(cost, wUp, wDown, midUp, midDown, m)

	nUp, nDown := m.up.rank(), m.down.rank()
	w, mid := make([]float64, nUp+nDown), make([]uint8, nUp+nDown)
	m.up.pack(w[:nUp:nUp], mid[:nUp:nUp], wUp, midUp)
	m.down.pack(w[nUp:], mid[nUp:], wDown, midDown)
	return m
}

// rank fills d's rank directory from its exc bits and returns how many
// exceptions d has.
func (d *delta) rank() int {
	n := 0
	for x := 0; x < len(d.marks); x += 3 {
		d.marks[x+2] = uint64(n)
		n += bits.OnesCount64(d.marks[x+1])
	}
	return n
}

// pack gives d its exceptions, in w and mid, from one direction's dense
// weights and codes.
func (d *delta) pack(w []float64, mid []uint8, dw []float64, dmid []uint8) {
	d.w, d.mid = w, mid
	i := 0
	for x := 0; x < len(d.marks); x += 3 {
		for e := d.marks[x+1]; e != 0; e &= e - 1 {
			k := x/3<<6 | bits.TrailingZeros64(e)
			w[i], mid[i] = dw[k], dmid[k]
			i++
		}
	}
}

// mark sets m's delta bits for arcs lo..hi, just customized into the
// dense arrays, against m's master: an arc whose weight bits or code
// differ is marked inf when its weight is +Inf, else exc. The bits of a
// word are gathered without a branch and stored once.
func (m *Metric) mark(lo, hi int32, wUp, wDown []float64, midUp, midDown []uint8) {
	for k := lo; k < hi; {
		word, end := 3*(k>>6), min(hi, (k|63)+1)
		var iu, xu, id, xd uint64
		for ; k < end; k++ {
			i, x := differs(wUp[k], m.wUp[k], midUp[k], m.midUp[k])
			iu, xu = iu|i<<(k&63), xu|x<<(k&63)
			i, x = differs(wDown[k], m.wDown[k], midDown[k], m.midDown[k])
			id, xd = id|i<<(k&63), xd|x<<(k&63)
		}
		m.up.marks[word] |= iu
		m.up.marks[word+1] |= xu
		m.down.marks[word] |= id
		m.down.marks[word+1] |= xd
	}
}

// sweep is Customize into the given arrays. When diff is non-nil (a
// masked metric whose arrays are its master's), each owner's arcs are
// compared with the master's as soon as the owner is done (diff.mark).
func (t *Topology) sweep(cost func(roadnet.EdgeID) float64, wUp, wDown []float64, midUp, midDown []uint8, diff *Metric) {
	inf := math.Inf(1)
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
		lo, hi := upStart[b], upStart[b+1]
		for k := lo; k < hi; k++ {
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
		if diff != nil {
			diff.mark(lo, hi, wUp, wDown, midUp, midDown)
		}
	}
}

// differs compares an arc's weight w and code c with its master's, mw
// and mc, without a branch: inf is 1 when they differ and w is +Inf, exc
// is 1 when they differ and w is finite. Weights are non-negative, so w
// is +Inf exactly when its bits exceed the largest finite float's.
func differs(w, mw float64, c, mc uint8) (inf, exc uint64) {
	wb := math.Float64bits(w)
	x := wb ^ math.Float64bits(mw) | uint64(c^mc)
	d := (x | -x) >> 63
	i := (math.Float64bits(math.MaxFloat64) - wb) >> 63
	return d & i, d &^ i
}

// CustomizeAll customizes one fresh metric per cost function: a masked
// one against masters[x] when masters is non-nil and masters[x] is (a
// metric customized from t, typically the same weight with nothing
// forbidden), else a dense one. Metrics are independent, so they are
// handed out whole to min(len(costs), GOMAXPROCS) goroutines, which
// sweep masked metrics in pooled dense scratch; one metric is
// customized inline. Each comes out bit for bit as Customize alone
// makes it: a masked metric's weights and codes, read through its
// delta, are Customize's. The cost functions may be called
// concurrently.
func (t *Topology) CustomizeAll(costs []func(roadnet.EdgeID) float64, masters []*Metric) []*Metric {
	ms := make([]*Metric, len(costs))
	workers := min(len(costs), runtime.GOMAXPROCS(0))
	if workers <= 1 {
		for x := range costs {
			ms[x] = t.customize(x, costs, masters)
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
				ms[x] = t.customize(x, costs, masters)
			}
		}()
	}
	wg.Wait()
	return ms
}

// customize is CustomizeAll's metric x.
func (t *Topology) customize(x int, costs []func(roadnet.EdgeID) float64, masters []*Metric) *Metric {
	if masters != nil && masters[x] != nil {
		return t.customizeOver(masters[x], costs[x])
	}
	return t.Customize(costs[x])
}

// middleSlow returns the lower triangle that set arc k's weight in the
// given direction for a code unpack does not read from the table: the
// escape, or one naming no triangle of arc k, which cannot come out of
// Customize and panics.
func (m *Metric) middleSlow(k int32, code uint8, up bool) triangle {
	t := m.t
	tris := t.tris[t.triStart[k]:t.triStart[k+1]]
	w := m.weight(k, up)
	if code == escape && len(tris) >= escape {
		for _, tr := range tris[escape-1:] {
			i, j := tr.i, tr.j
			if !up {
				i, j = j, i
			}
			if m.weight(i, false)+m.weight(j, true) == w {
				return tr
			}
		}
	}
	panic(fmt.Sprintf("ch: arc %d (%d triangles) has middle code %d but no lower triangle summing to its weight %v", k, len(tris), code, w))
}

// Bytes returns the heap bytes the metric holds of its own: a dense
// metric's arrays, 18 per skeleton arc, or a masked metric's deltas —
// bitmaps, rank directories and exceptions — without its master's
// arrays. The topology it indexes is shared and not counted.
func (m *Metric) Bytes() int {
	if m.up.masked() {
		return m.up.bytes() + m.down.bytes()
	}
	return 8*(len(m.wUp)+len(m.wDown)) + len(m.midUp) + len(m.midDown)
}
