package route

import (
	"math"

	"repro/internal/container"
	"repro/internal/roadnet"
)

// SlavePredicate reports whether a road type satisfies the slave
// (road-condition) dimension of a routing preference. A nil predicate
// means "no road-condition preference".
type SlavePredicate func(roadnet.RoadType) bool

// Engine runs shortest-path queries over a fixed graph, reusing internal
// buffers across queries. The buffers are allocated lazily on the first
// query, so constructing (or Forking) an Engine costs a small struct;
// per-vertex arrays are only paid by engines that actually run a query.
// Snapshot clone pools rely on this to make cloning cheap.
type Engine struct {
	g *roadnet.Graph

	dist    []float64
	parent  []roadnet.EdgeID
	visited []uint32 // epoch marks; dist/parent valid iff visited[v]==epoch
	settled []uint32
	epoch   uint32

	heap *container.IndexedMinHeap

	// outTypes is the per-vertex out-type table masked searches consult
	// (see OutTypeMasks); built on the first masked query.
	outTypes []SlaveMask

	// PopCount accumulates the number of heap pops across queries; the
	// evaluation harness reads it to report search effort.
	PopCount int64
}

// NewEngine returns an Engine for g. Query buffers are allocated on
// first use.
func NewEngine(g *roadnet.Graph) *Engine {
	return &Engine{g: g}
}

// Graph returns the engine's graph.
func (e *Engine) Graph() *roadnet.Graph { return e.g }

// Fork returns a fresh Engine over the same graph with independent
// (lazily allocated) query state, implementing PathEngine. The
// read-only out-type table, if already built, is shared.
func (e *Engine) Fork() PathEngine { return &Engine{g: e.g, outTypes: e.outTypes} }

// ensure allocates the per-vertex query buffers on first use.
func (e *Engine) ensure() {
	if e.dist != nil {
		return
	}
	n := e.g.NumVertices()
	e.dist = make([]float64, n)
	e.parent = make([]roadnet.EdgeID, n)
	e.visited = make([]uint32, n)
	e.settled = make([]uint32, n)
	e.heap = container.NewIndexedMinHeap(n)
}

func (e *Engine) reset() {
	e.ensure()
	e.epoch++
	if e.epoch == 0 { // wrapped; clear marks
		for i := range e.visited {
			e.visited[i] = 0
			e.settled[i] = 0
		}
		e.epoch = 1
	}
	e.heap.Reset()
}

func (e *Engine) see(v roadnet.VertexID, d float64, via roadnet.EdgeID) {
	e.dist[v] = d
	e.parent[v] = via
	e.visited[v] = e.epoch
	e.heap.Push(int(v), d)
}

func (e *Engine) distOf(v roadnet.VertexID) float64 {
	if e.visited[v] != e.epoch {
		return math.Inf(1)
	}
	return e.dist[v]
}

// extractPath reconstructs the path ending at d via parent edges.
func (e *Engine) extractPath(d roadnet.VertexID) roadnet.Path {
	return e.appendPath(nil, d)
}

// appendPath appends the path ending at d to dst.
func (e *Engine) appendPath(dst roadnet.Path, d roadnet.VertexID) roadnet.Path {
	start := len(dst)
	v := d
	for {
		dst = append(dst, v)
		pe := e.parent[v]
		if pe == roadnet.NoEdge {
			break
		}
		v = e.g.Edge(pe).From
	}
	for i, j := start, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}

// Route returns the minimum-cost path from s to d under weight w, its
// cost, and whether d is reachable.
func (e *Engine) Route(s, d roadnet.VertexID, w roadnet.Weight) (roadnet.Path, float64, bool) {
	return e.RoutePref(s, d, w, nil)
}

// Shortest returns the minimum-distance path.
func (e *Engine) Shortest(s, d roadnet.VertexID) (roadnet.Path, float64, bool) {
	return e.Route(s, d, roadnet.DI)
}

// Fastest returns the minimum-travel-time path.
func (e *Engine) Fastest(s, d roadnet.VertexID) (roadnet.Path, float64, bool) {
	return e.Route(s, d, roadnet.TT)
}

// RoutePref implements the paper's Algorithm 2
// (ApplyingPreferencesModifiedDijkstra). The master dimension chooses the
// scalar weight minimized; the slave predicate restricts expansion: when
// at least one out-edge of the settled vertex satisfies the slave
// road-condition preference, only satisfying edges are relaxed; when none
// does, all out-edges are relaxed. A nil slave gives classical Dijkstra.
func (e *Engine) RoutePref(s, d roadnet.VertexID, w roadnet.Weight, slave SlavePredicate) (roadnet.Path, float64, bool) {
	return e.AppendRouteMask(nil, s, d, w, MaskOf(slave))
}

// AppendRoute implements PathEngine.
func (e *Engine) AppendRoute(dst roadnet.Path, s, d roadnet.VertexID, w roadnet.Weight) (roadnet.Path, float64, bool) {
	return e.AppendRouteMask(dst, s, d, w, 0)
}

// AppendRouteMask is RoutePref with the slave predicate given as its
// road-type mask (a predicate is a pure function of the road type, so
// the mask captures it exactly) and the path appended to a caller-owned
// buffer, returned unchanged when d is unreachable. The preference
// learner runs its surviving restricted searches through it: no
// closure, no per-edge indirect calls, no path allocation.
func (e *Engine) AppendRouteMask(dst roadnet.Path, s, d roadnet.VertexID, w roadnet.Weight, mask SlaveMask) (roadnet.Path, float64, bool) {
	if mask != 0 {
		e.OutTypes()
	}
	e.reset()
	e.see(s, 0, roadnet.NoEdge)
	for e.heap.Len() > 0 {
		ui, du := e.heap.Pop()
		u := roadnet.VertexID(ui)
		e.settled[u] = e.epoch
		e.PopCount++
		if u == d {
			return e.appendPath(dst, d), du, true
		}
		e.relax(u, du, w, mask)
	}
	return dst, math.Inf(1), false
}

// OutTypes returns the engine's out-type table (OutTypeMasks of its
// graph), building it on first use. The slice is shared and read-only.
func (e *Engine) OutTypes() []SlaveMask {
	if e.outTypes == nil {
		e.outTypes = OutTypeMasks(e.g)
	}
	return e.outTypes
}

// relax expands u under weight w. A non-zero mask requires e.outTypes
// (AppendRouteMask builds it before searching).
func (e *Engine) relax(u roadnet.VertexID, du float64, w roadnet.Weight, mask SlaveMask) {
	// Case (i) of Algorithm 2: some out-edge satisfies the slave
	// preference — explore only those. Case (ii): none does — explore
	// all.
	restrict := mask != 0 && e.outTypes[u]&mask != 0
	for _, eid := range e.g.Out(u) {
		ed := e.g.Edge(eid)
		if restrict && mask&(1<<ed.Type) == 0 {
			continue
		}
		alt := du + e.g.EdgeWeight(eid, w)
		if alt < e.distOf(ed.To) {
			if e.settled[ed.To] == e.epoch {
				continue // already settled with a smaller key
			}
			e.see(ed.To, alt, eid)
		}
	}
}

// BoundedCosts runs Dijkstra from s under weight w, stopping once all
// remaining queue entries exceed bound, and returns the cost of every
// vertex settled within the bound. Map matching uses it to compute
// network distances between nearby candidate points without exploring
// the whole graph.
func (e *Engine) BoundedCosts(s roadnet.VertexID, w roadnet.Weight, bound float64) map[roadnet.VertexID]float64 {
	e.reset()
	e.see(s, 0, roadnet.NoEdge)
	out := make(map[roadnet.VertexID]float64)
	for e.heap.Len() > 0 {
		ui, du := e.heap.Pop()
		if du > bound {
			break
		}
		u := roadnet.VertexID(ui)
		e.settled[u] = e.epoch
		e.PopCount++
		out[u] = du
		e.relax(u, du, w, 0)
	}
	return out
}

// CustomRoute runs Dijkstra with an arbitrary non-negative edge cost
// function.
func (e *Engine) CustomRoute(s, d roadnet.VertexID, cost func(roadnet.EdgeID) float64) (roadnet.Path, float64, bool) {
	e.reset()
	e.see(s, 0, roadnet.NoEdge)
	for e.heap.Len() > 0 {
		ui, du := e.heap.Pop()
		u := roadnet.VertexID(ui)
		e.settled[u] = e.epoch
		e.PopCount++
		if u == d {
			return e.extractPath(d), du, true
		}
		for _, eid := range e.g.Out(u) {
			ed := e.g.Edge(eid)
			alt := du + cost(eid)
			if e.settled[ed.To] != e.epoch && alt < e.distOf(ed.To) {
				e.see(ed.To, alt, eid)
			}
		}
	}
	return nil, math.Inf(1), false
}
