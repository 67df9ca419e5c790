package ch

import (
	"slices"

	"repro/internal/container"
	"repro/internal/roadnet"
)

// Topology is the metric-independent half of a customizable contraction
// hierarchy (CCH, Dibbelt/Strasser/Wagner): a contraction order plus the
// shortcut skeleton that order induces, contracted once per road network
// and then reused for every weight function. Contraction keeps every
// potential shortcut (no witness searches — witnesses depend on the
// metric), so the skeleton is valid for any non-negative edge costs;
// Customize fills in the weights.
//
// The skeleton is stored as a flat CSR over int32 arrays. Each
// undirected skeleton edge {a, b} with rank(a) < rank(b) is owned by its
// lower-ranked endpoint a and appears exactly once, in a's up-arc range
// upStart[a]..upStart[a+1], sorted by the rank of the other endpoint.
// Because every fill edge is kept, the up-neighbours of a vertex are
// pairwise adjacent, so the first arc of a range leads to the vertex's
// elimination-tree parent and the rest to further ancestors: the query
// (MetricQuery) climbs that one chain and needs no other structure.
type Topology struct {
	g *roadnet.Graph

	rank  []int32 // vertex -> contraction order (0 = contracted first)
	order []int32 // contraction order -> vertex (inverse of rank)

	upStart []int32 // CSR offsets into upTo, len NumVertices+1
	upTo    []int32 // higher-ranked endpoint of each skeleton arc

	// origUp/origDown map each skeleton arc back to the original road
	// edge in the lower→higher (origUp) and higher→lower (origDown)
	// direction, or -1 when the graph has no such edge and the arc can
	// only carry shortcut weight in that direction.
	origUp   []int32
	origDown []int32

	shortcuts int // skeleton arcs with no original edge in either direction

	// What a query costs on this contraction order (see Height).
	height    int
	climbArcs float64
}

// Config is the contraction configuration, and it is empty: contraction
// is metric-independent and takes no tuning. The type remains because
// core.Options, serve.Options and Router.EnableCH name it.
type Config struct{}

// peek returns the minimum entry without removing it.
func peek(pq *container.IndexedMinHeap) (int, float64) {
	id, p := pq.Pop()
	pq.Push(id, p)
	return id, p
}

// BuildTopology contracts g once, metric-independently: the greedy
// ContractionOrder, then the skeleton NewTopology derives from it. The
// result is immutable and shared by all Metrics customized from it and
// all MetricQuery contexts over it.
func BuildTopology(g *roadnet.Graph) *Topology {
	return NewTopology(g, ContractionOrder(g))
}

// ContractionOrder orders g's vertices for contraction (order[i] is
// contracted i-th) greedily by fill-in minus degree plus a depth term —
// the classic edge difference without the witness term — with lazy
// updates: a popped vertex whose recomputed priority no longer beats the
// next one is pushed back. Each choice needs the fill the earlier ones
// made, so it plays the elimination game on adjacency sets. This is the
// expensive half of contraction, and the half an artifact carries.
func ContractionOrder(g *roadnet.Graph) []int32 {
	n := g.NumVertices()
	nb := make([]map[int32]struct{}, n)
	for v := range nb {
		nb[v] = make(map[int32]struct{}, 4)
	}
	for e := roadnet.EdgeID(0); int(e) < g.NumEdges(); e++ {
		if ed := g.Edge(e); ed.From != ed.To { // self-loops never help shortest paths
			nb[ed.From][int32(ed.To)] = struct{}{}
			nb[ed.To][int32(ed.From)] = struct{}{}
		}
	}
	level := make([]int32, n)
	prio := func(v int32) float64 {
		deg := len(nb[v])
		fill := 0
		for a := range nb[v] {
			for b := range nb[v] {
				if a < b {
					if _, ok := nb[a][b]; !ok {
						fill++
					}
				}
			}
		}
		return float64(fill-deg) + 0.5*float64(level[v])
	}

	pq := container.NewIndexedMinHeap(n)
	for v := 0; v < n; v++ {
		pq.Push(v, prio(int32(v)))
	}
	order := make([]int32, 0, n)
	var ns []int32
	for pq.Len() > 0 {
		vi, _ := pq.Pop()
		v := int32(vi)
		p := prio(v)
		if pq.Len() > 0 {
			if _, top := peek(pq); p > top {
				pq.Push(vi, p)
				continue
			}
		}
		// Eliminate v: its remaining neighbours become pairwise adjacent.
		ns = ns[:0]
		for u := range nb[v] {
			ns = append(ns, u)
		}
		for _, u := range ns {
			delete(nb[u], v)
			if level[u] <= level[v] {
				level[u] = level[v] + 1
			}
		}
		for i, a := range ns {
			for _, b := range ns[i+1:] {
				nb[a][b] = struct{}{}
				nb[b][a] = struct{}{}
			}
		}
		order = append(order, v)
	}
	return order
}

// NewTopology derives the skeleton that contracting g in order — a
// permutation of g's vertices, which the topology keeps — induces, by
// symbolic elimination in rank order: a vertex's up-set is its
// higher-ranked neighbours plus its elimination-tree children's
// up-sets, minus itself, and its parent is the lowest-ranked member.
func NewTopology(g *roadnet.Graph, order []int32) *Topology {
	n := g.NumVertices()
	t := &Topology{g: g, rank: make([]int32, n), order: order}
	for i, v := range order {
		t.rank[v] = int32(i)
	}
	// Up-sets in rank order, order[i]'s being up[at[i]:at[i+1]]; child and
	// sibling list each vertex's elimination-tree children, and mark[u] ==
	// v while u is in v's up-set.
	at := make([]int32, n+1)
	var up []int32
	child, sibling, mark := make([]int32, n), make([]int32, n), make([]int32, n)
	for v := range child {
		child[v], mark[v] = -1, -1
	}
	for i, v := range order {
		start := len(up)
		add := func(u int32) {
			if t.rank[u] > int32(i) && mark[u] != v {
				mark[u] = v
				up = append(up, u)
			}
		}
		for _, e := range g.Out(roadnet.VertexID(v)) {
			add(int32(g.Edge(e).To))
		}
		for _, e := range g.In(roadnet.VertexID(v)) {
			add(int32(g.Edge(e).From))
		}
		for c := child[v]; c >= 0; c = sibling[c] {
			for _, u := range up[at[t.rank[c]]:at[t.rank[c]+1]] {
				add(u)
			}
		}
		set := up[start:]
		slices.SortFunc(set, func(a, b int32) int { return int(t.rank[a] - t.rank[b]) })
		if at[i+1] = int32(len(up)); len(set) > 0 {
			sibling[v], child[set[0]] = child[set[0]], v
		}
	}

	// Flatten into the query's CSR, by vertex ID.
	t.upStart = make([]int32, n+1)
	t.upTo = make([]int32, 0, len(up))
	t.origUp = make([]int32, 0, len(up))
	t.origDown = make([]int32, 0, len(up))
	for v := 0; v < n; v++ {
		for _, u := range up[at[t.rank[v]]:at[t.rank[v]+1]] {
			eUp := g.FindEdge(roadnet.VertexID(v), roadnet.VertexID(u))
			eDown := g.FindEdge(roadnet.VertexID(u), roadnet.VertexID(v))
			if eUp == roadnet.NoEdge && eDown == roadnet.NoEdge {
				t.shortcuts++
			}
			t.upTo = append(t.upTo, u)
			t.origUp = append(t.origUp, int32(eUp))
			t.origDown = append(t.origDown, int32(eDown))
		}
		t.upStart[v+1] = int32(len(t.upTo))
	}
	t.measureClimbs()
	return t
}

// measureClimbs records the elimination tree's height and the mean
// number of up-arcs one climb relaxes. Parents outrank children, so one
// pass in descending rank order sees every parent before its children.
func (t *Topology) measureClimbs() {
	n := len(t.rank)
	depth := make([]int32, n) // vertices on the chain from v to its root
	arcs := make([]int64, n)  // up-arcs over that chain
	var total int64
	for ri := n - 1; ri >= 0; ri-- {
		v := t.order[ri]
		lo, hi := t.upStart[v], t.upStart[v+1]
		depth[v], arcs[v] = 1, int64(hi-lo)
		if lo < hi {
			p := t.upTo[lo]
			depth[v] += depth[p]
			arcs[v] += arcs[p]
		}
		if int(depth[v]) > t.height {
			t.height = int(depth[v])
		}
		total += arcs[v]
	}
	if n > 0 {
		t.climbArcs = float64(total) / float64(n)
	}
}

// findArc returns the CSR index of the skeleton arc between lo (the
// lower-ranked owner) and hi, or -1 when there is none. The arc exists
// for every (contracted vertex, pair of its up-neighbors) triangle by
// construction. Ranges hold a handful of arcs, so a linear scan on the
// vertex id beats a binary search keyed on rank[upTo[mid]].
func (t *Topology) findArc(lo, hi int32) int32 {
	for k := t.upStart[lo]; k < t.upStart[lo+1]; k++ {
		if t.upTo[k] == hi {
			return k
		}
	}
	return -1
}

// Graph returns the road network the topology was contracted from.
func (t *Topology) Graph() *roadnet.Graph { return t.g }

// NumArcs returns the number of undirected skeleton edges.
func (t *Topology) NumArcs() int { return len(t.upTo) }

// Shortcuts returns the number of skeleton edges that correspond to no
// original road edge in either direction — pure shortcut skeleton.
func (t *Topology) Shortcuts() int { return t.shortcuts }

// Order returns the contraction order, order[i] being the vertex
// contracted i-th: what NewTopology rebuilds this topology from. The
// slice is the topology's own and must not be modified.
func (t *Topology) Order() []int32 { return t.order }

// Rank returns the contraction order of v (higher = contracted later =
// more important).
func (t *Topology) Rank(v roadnet.VertexID) int { return int(t.rank[v]) }

// Height returns the elimination tree's height: the number of vertices
// on the longest chain from a vertex to its root, which is the most one
// side of a query ever visits. Query cost is a property of the
// contraction order, not of the OD pair; this and ClimbArcsMean are
// what say when a better (nested-dissection) order would start to pay.
func (t *Topology) Height() int { return t.height }

// ClimbArcsMean returns the mean, over all start vertices, of the
// number of up-arcs one side of a query relaxes on its climb.
func (t *Topology) ClimbArcsMean() float64 { return t.climbArcs }
