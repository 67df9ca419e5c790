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
	t.measureClimbs()
	return t
}
