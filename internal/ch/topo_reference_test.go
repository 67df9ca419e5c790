package ch

import (
	"sort"

	"repro/internal/container"
	"repro/internal/roadnet"
)

// BuildTopologyReference is BuildTopology as it was before the order
// and the skeleton split: the elimination game on per-vertex adjacency
// maps, each contracted vertex's remaining neighbours kept as its
// up-arcs and flattened into the CSR. Kept as the test-only reference
// NewTopology is held to. order nil contracts by the greedy heuristic,
// choosing each vertex as the game goes; otherwise the game plays the
// given order.
func BuildTopologyReference(g *roadnet.Graph, order []int32) *Topology {
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

	contract := func(v int32, rank int32) {
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
		t.rank[v] = rank
		t.order[rank] = v
	}
	if order != nil {
		for i, v := range order {
			contract(v, int32(i))
		}
	} else {
		pq := container.NewIndexedMinHeap(n)
		for v := 0; v < n; v++ {
			pq.Push(v, prio(int32(v)))
		}
		next := int32(0)
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
			contract(v, next)
			next++
		}
	}

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
	t.bruteForceTriangles()
	t.measureClimbs()
	return t
}

// bruteForceTriangles derives the lower-triangle table from its
// definition, without the pairwise-adjacency invariant buildTriangles
// enumerates by: arc {b1, b2}'s triangles are the vertices owning arcs
// to both b1 and b2, in ascending rank, found through a map of arcs.
func (t *Topology) bruteForceTriangles() {
	n, m := len(t.rank), len(t.upTo)
	arcOf := make(map[[2]int32]int32, m) // {owner, other} -> arc
	owners := make([][]int32, n)         // owners[u]: the vertices owning an arc to u
	for v := 0; v < n; v++ {
		for k := t.upStart[v]; k < t.upStart[v+1]; k++ {
			arcOf[[2]int32{int32(v), t.upTo[k]}] = k
			owners[t.upTo[k]] = append(owners[t.upTo[k]], int32(v))
		}
	}
	t.lowOf = make([]int32, m)
	t.triStart = make([]int32, m+1)
	t.tris = []triangle{}
	for v := 0; v < n; v++ {
		for k := t.upStart[v]; k < t.upStart[v+1]; k++ {
			b1, b2 := int32(v), t.upTo[k]
			t.lowOf[k] = b1
			var as []int32
			for _, a := range owners[b1] {
				if _, ok := arcOf[[2]int32{a, b2}]; ok {
					as = append(as, a)
				}
			}
			sort.Slice(as, func(i, j int) bool { return t.rank[as[i]] < t.rank[as[j]] })
			for _, a := range as {
				t.tris = append(t.tris, triangle{arcOf[[2]int32{a, b1}], arcOf[[2]int32{a, b2}]})
			}
			t.triStart[k+1] = int32(len(t.tris))
		}
	}
}

// contractionOrderReference is ContractionOrder as it was before the
// flat neighbour lists: the elimination game on per-vertex adjacency
// maps, fill counted pair by pair through map lookups. Kept as the
// test-only reference the flat game is held to.
func contractionOrderReference(g *roadnet.Graph) []int32 {
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
