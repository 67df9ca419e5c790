package ch

import (
	"sort"

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

// BuildTopology contracts g once, metric-independently: vertices are
// ordered by a greedy edge-difference heuristic and every pair of
// higher-ranked neighbors of a contracted vertex becomes a skeleton
// edge. The result is immutable and shared by all Metrics customized
// from it and all MetricQuery contexts over it.
func BuildTopology(g *roadnet.Graph) *Topology {
	n := g.NumVertices()
	nb := make([]map[int32]struct{}, n)
	for v := range nb {
		nb[v] = make(map[int32]struct{}, 4)
	}
	for v := 0; v < n; v++ {
		for _, e := range g.Out(roadnet.VertexID(v)) {
			ed := g.Edge(e)
			if ed.From == ed.To {
				continue // self-loops never help shortest paths
			}
			nb[ed.From][int32(ed.To)] = struct{}{}
			nb[ed.To][int32(ed.From)] = struct{}{}
		}
	}

	t := &Topology{
		g:     g,
		rank:  make([]int32, n),
		order: make([]int32, n),
	}
	level := make([]int32, n)
	upNbr := make([][]int32, n)

	// Greedy contraction by fill-in minus degree plus a depth term —
	// the classic edge-difference priority without the witness term,
	// with lazy priority updates: a popped vertex whose recomputed
	// priority no longer beats the next one is pushed back.
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
	order := int32(0)
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
		// Contract v: its uncontracted neighbors become its up-neighbors
		// and every pair of them becomes adjacent (the fill edges that a
		// metric-dependent build would prune with witness searches).
		ns := make([]int32, 0, len(nb[v]))
		for u := range nb[v] {
			ns = append(ns, u)
		}
		upNbr[v] = ns
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
		t.rank[v] = order
		t.order[order] = v
		order++
	}

	// Flatten into CSR, sorting each up-arc range by endpoint rank.
	m := 0
	for _, ns := range upNbr {
		m += len(ns)
	}
	t.upStart = make([]int32, n+1)
	t.upTo = make([]int32, 0, m)
	t.origUp = make([]int32, 0, m)
	t.origDown = make([]int32, 0, m)
	for v := 0; v < n; v++ {
		ns := upNbr[v]
		sort.Slice(ns, func(i, j int) bool { return t.rank[ns[i]] < t.rank[ns[j]] })
		for _, u := range ns {
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
