package ch

import (
	"errors"
	"fmt"
	"math"
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
//
// The same invariant makes every pair of a vertex's up-arcs a lower
// triangle: {a; b1, b2}, with a outranked by b1 and b2, through which
// arc {b1, b2} can be relaxed. The topology lists each triangle once,
// under the arc it relaxes, as a shared table every Metric indexes:
// customization sweeps it, and path unpacking reads a shortcut's
// winning triangle from it by position instead of searching for arcs.
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

	// The lower-triangle table. Arc k = {b1, b2}'s triangles are
	// tris[triStart[k]:triStart[k+1]], one per common lower neighbour a
	// of b1 and b2, in ascending rank of a; lowOf[k] is arc k's owner
	// (its lower-ranked endpoint), so a triangle's middle vertex is
	// lowOf[i]. Its size, Σ C(|up(a)|, 2), is known before it is built.
	triStart []int32
	tris     []triangle
	lowOf    []int32

	shortcuts int // skeleton arcs with no original edge in either direction

	// What a query costs on this contraction order (see Height).
	height    int
	climbArcs float64
}

// Config is the contraction configuration, and it is empty: contraction
// is metric-independent and takes no tuning. It is read by nothing and
// remains only while the benchmark module names it (route.BuildCHEngine
// and core.Router.EnableCH take one); it goes with that module's next
// change (ROADMAP.md item 8).
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
// made, so it plays the elimination game. This is the expensive half of
// contraction, and the half an artifact carries.
//
// The game runs on flat neighbour lists, no maps: nb[v] holds v's
// remaining neighbours once each, in no particular order. A vertex's
// fill is C(deg, 2) minus its adjacent neighbour pairs, counted by
// stamping its neighbours and scanning theirs; eliminating v
// swap-deletes it from its neighbours' lists and appends the missing
// fill edges, again through the stamps. Nothing depends on the order
// within a list — priorities are integer counts and the heap sees the
// same operations — so the order is the map-based game's, which
// TestContractionOrderMatchesReference holds it to.
func ContractionOrder(g *roadnet.Graph) []int32 {
	n := g.NumVertices()
	nb := make([][]int32, n)
	stamp := make([]uint32, n)
	var epoch uint32
	next := func() uint32 {
		if epoch++; epoch == 0 { // wrapped; a stale stamp would read as fresh
			clear(stamp)
			epoch = 1
		}
		return epoch
	}
	for v := range nb {
		s := next()
		stamp[v] = s // self-loops never help shortest paths
		add := func(u roadnet.VertexID) {
			if stamp[u] != s {
				stamp[u] = s
				nb[v] = append(nb[v], int32(u))
			}
		}
		for _, e := range g.Out(roadnet.VertexID(v)) {
			add(g.Edge(e).To)
		}
		for _, e := range g.In(roadnet.VertexID(v)) {
			add(g.Edge(e).From)
		}
	}
	level := make([]int32, n)
	prio := func(v int32) float64 {
		s := next()
		for _, u := range nb[v] {
			stamp[u] = s
		}
		adjacent := 0 // each adjacent pair counts once from either end
		for _, a := range nb[v] {
			for _, b := range nb[a] {
				if stamp[b] == s {
					adjacent++
				}
			}
		}
		deg := len(nb[v])
		fill := deg*(deg-1)/2 - adjacent/2
		return float64(fill-deg) + 0.5*float64(level[v])
	}

	pq := container.NewIndexedMinHeap(n)
	for v := 0; v < n; v++ {
		pq.Push(v, prio(int32(v)))
	}
	order := make([]int32, 0, n)
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
		ns := nb[v]
		for _, u := range ns {
			l := nb[u]
			i := slices.Index(l, v)
			l[i] = l[len(l)-1]
			nb[u] = l[:len(l)-1]
			if level[u] <= level[v] {
				level[u] = level[v] + 1
			}
		}
		for _, a := range ns {
			s := next()
			stamp[a] = s
			for _, u := range nb[a] {
				stamp[u] = s
			}
			for _, b := range ns {
				if stamp[b] != s {
					nb[a] = append(nb[a], b)
				}
			}
		}
		nb[v] = nil
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
	t, _ := deriveTopology(g, order, math.MaxInt, math.MaxInt)
	return t
}

// The fill budget DeriveTopology holds an order from outside input to,
// per road edge. ContractionOrder's order for every generated world up
// to metro stays within it: 1.4 arcs and 3.6 lower triangles per edge
// at ci, 3.2 and 47 at metro (943k edges). A star whose centre comes
// first fills into a clique on the leaves, n²/2 arcs and n³/6 triangles.
const (
	maxArcsPerEdge      = 8
	maxTrianglesPerEdge = 64
)

// ErrFill reports a contraction order whose skeleton would outgrow
// DeriveTopology's fill budget.
var ErrFill = errors.New("ch: contraction order fills in past the budget")

// DeriveTopology is NewTopology for a road network and order read from
// outside input, such as an artifact: it refuses with ErrFill an order
// whose skeleton would hold more than 8 arcs or 64 lower triangles per
// road edge, as the elimination finds it and before the triangle table
// is allocated, so what it allocates stays linear in g. order must be a
// permutation of g's vertices.
func DeriveTopology(g *roadnet.Graph, order []int32) (*Topology, error) {
	m := g.NumEdges()
	return deriveTopology(g, order, maxArcsPerEdge*m, maxTrianglesPerEdge*m)
}

// deriveTopology is NewTopology refusing, with ErrFill, a skeleton of
// more than maxArcs arcs or maxTris lower triangles.
func deriveTopology(g *roadnet.Graph, order []int32, maxArcs, maxTris int) (*Topology, error) {
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
	tris := 0
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
		if tris += len(set) * (len(set) - 1) / 2; len(up) > maxArcs || tris > maxTris {
			return nil, ErrFill
		}
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
	t.buildTriangles()
	t.measureClimbs()
	return t, nil
}

// triangle is one lower triangle {a; b1, b2} of the arc {b1, b2} it
// relaxes, as the CSR indexes of its two other arcs, both owned by a:
// i = {a, b1} and j = {a, b2}.
type triangle struct{ i, j int32 }

// buildTriangles fills the lower-triangle table from the CSR. One
// enumeration, in ascending rank of a, finds each pair of a's up-arcs
// their third arc {b1, b2} by walking b1's rank-sorted range forward as
// b2 advances through a's; a stable counting sort then groups the pairs
// by that arc. A pair of up-neighbours that is not adjacent breaks the
// invariant the query and the table rely on, and panics.
func (t *Topology) buildTriangles() {
	m := len(t.upTo)
	t.lowOf = make([]int32, m)
	total := 0
	for v := range t.rank {
		lo, hi := t.upStart[v], t.upStart[v+1]
		for k := lo; k < hi; k++ {
			t.lowOf[k] = int32(v)
		}
		total += int(hi-lo) * int(hi-lo-1) / 2
	}
	third := make([]int32, 0, total) // the arc each pair relaxes, in enumeration order
	t.triStart = make([]int32, m+1)
	for _, a := range t.order {
		lo, hi := t.upStart[a], t.upStart[a+1]
		for i := lo; i < hi; i++ {
			b1 := t.upTo[i]
			k, end := t.upStart[b1], t.upStart[b1+1]
			for j := i + 1; j < hi; j++ {
				// rank(b1) < rank(b2): the arc {b1, b2} is owned by b1.
				b2 := t.upTo[j]
				for rb2 := t.rank[b2]; k < end && t.rank[t.upTo[k]] < rb2; k++ {
				}
				if k == end || t.upTo[k] != b2 {
					panic(fmt.Sprintf("ch: up-neighbours %d and %d of vertex %d are not adjacent", b1, b2, a))
				}
				third = append(third, k)
				t.triStart[k+1]++
			}
		}
	}
	for k := 0; k < m; k++ {
		t.triStart[k+1] += t.triStart[k]
	}
	// Place the pairs again in enumeration order, triStart[k] serving as
	// arc k's cursor, then shift the advanced cursors back to starts.
	t.tris = make([]triangle, total)
	x := 0
	for _, a := range t.order {
		lo, hi := t.upStart[a], t.upStart[a+1]
		for i := lo; i < hi; i++ {
			for j := i + 1; j < hi; j++ {
				k := third[x]
				x++
				t.tris[t.triStart[k]] = triangle{i, j}
				t.triStart[k]++
			}
		}
	}
	copy(t.triStart[1:], t.triStart[:m])
	t.triStart[0] = 0
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

// Bytes returns the heap bytes the topology's own arrays hold: the
// contraction order, the skeleton and the triangle table, which every
// metric customized from it shares (the road network is not counted).
func (t *Topology) Bytes() int {
	return 4*(len(t.rank)+len(t.order)+len(t.upStart)+len(t.upTo)+len(t.origUp)+len(t.origDown)+
		len(t.triStart)+len(t.lowOf)) + 8*len(t.tris)
}

// ClimbArcsMean returns the mean, over all start vertices, of the
// number of up-arcs one side of a query relaxes on its climb.
func (t *Topology) ClimbArcsMean() float64 { return t.climbArcs }
