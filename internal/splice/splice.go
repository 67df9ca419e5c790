package splice

import (
	"math"
	"sort"

	"repro/internal/container"
	"repro/internal/roadnet"
)

// TransitionGraph is the transfer network: the subgraph of the road
// network traversed by trajectories, with per-edge traversal counts and
// out-degree-normalized transition probabilities.
type TransitionGraph struct {
	g *roadnet.Graph

	verts []roadnet.VertexID       // dense id -> road vertex
	index map[roadnet.VertexID]int // road vertex -> dense id

	out      [][]transition
	outTotal []float64 // per-vertex total outgoing traversal count
}

// transition is one counted directed move in the transfer network.
type transition struct {
	to    int // dense id
	count float64
}

// NewTransitionGraph builds the transfer network from trajectory paths.
func NewTransitionGraph(g *roadnet.Graph, paths []roadnet.Path) *TransitionGraph {
	tg := &TransitionGraph{g: g, index: make(map[roadnet.VertexID]int)}
	id := func(v roadnet.VertexID) int {
		if i, ok := tg.index[v]; ok {
			return i
		}
		i := len(tg.verts)
		tg.index[v] = i
		tg.verts = append(tg.verts, v)
		tg.out = append(tg.out, nil)
		tg.outTotal = append(tg.outTotal, 0)
		return i
	}
	for _, p := range paths {
		for i := 1; i < len(p); i++ {
			u, v := id(p[i-1]), id(p[i])
			tg.bump(u, v)
		}
	}
	// Canonical order for determinism.
	for u := range tg.out {
		sort.Slice(tg.out[u], func(i, j int) bool { return tg.out[u][i].to < tg.out[u][j].to })
	}
	return tg
}

func (tg *TransitionGraph) bump(u, v int) {
	tg.outTotal[u]++
	for i := range tg.out[u] {
		if tg.out[u][i].to == v {
			tg.out[u][i].count++
			return
		}
	}
	tg.out[u] = append(tg.out[u], transition{to: v, count: 1})
}

// NumVertices returns the number of trajectory-covered vertices.
func (tg *TransitionGraph) NumVertices() int { return len(tg.verts) }

// Prob returns the maximum-likelihood transition probability from u to v
// (0 if the move never occurred).
func (tg *TransitionGraph) Prob(u, v roadnet.VertexID) float64 {
	ui, ok := tg.index[u]
	if !ok || tg.outTotal[ui] == 0 {
		return 0
	}
	vi, ok := tg.index[v]
	if !ok {
		return 0
	}
	for _, t := range tg.out[ui] {
		if t.to == vi {
			return t.count / tg.outTotal[ui]
		}
	}
	return 0
}

// Absorption computes, for every covered vertex, the probability of
// eventually reaching dest under the absorbing Markov chain whose only
// absorbing state is dest (Chen et al.'s transfer probability). The
// linear system p = Q·p + b is solved by damped fixed-point iteration
// over the sparse transition structure; tol and maxIter bound the
// solve. Vertices with no outgoing transitions are dead ends with
// absorption 0 (unless they are dest).
func (tg *TransitionGraph) Absorption(dest roadnet.VertexID, tol float64, maxIter int) []float64 {
	n := len(tg.verts)
	p := make([]float64, n)
	di, ok := tg.index[dest]
	if !ok {
		return p
	}
	p[di] = 1
	next := make([]float64, n)
	for iter := 0; iter < maxIter; iter++ {
		maxDelta := 0.0
		for u := 0; u < n; u++ {
			if u == di {
				next[u] = 1
				continue
			}
			if tg.outTotal[u] == 0 {
				next[u] = 0
				continue
			}
			var s float64
			for _, t := range tg.out[u] {
				s += t.count / tg.outTotal[u] * p[t.to]
			}
			next[u] = s
			if d := math.Abs(s - p[u]); d > maxDelta {
				maxDelta = d
			}
		}
		p, next = next, p
		if maxDelta < tol {
			break
		}
	}
	return p
}

// Route returns the most popular spliced route from s to d: the path
// through the transfer network maximizing the product of transition
// probabilities weighted by downstream absorption probability. It
// reports ok=false when s or d is uncovered or no spliced route exists
// (the paper's Case 3).
func (tg *TransitionGraph) Route(s, d roadnet.VertexID) (roadnet.Path, bool) {
	si, okS := tg.index[s]
	di, okD := tg.index[d]
	if !okS || !okD {
		return nil, false
	}
	if si == di {
		return roadnet.Path{s}, true
	}
	absorb := tg.Absorption(d, 1e-9, 200)
	if absorb[si] <= 0 {
		return nil, false
	}
	// Maximize product of ρ(u,v) = P(u→v)·absorb(v) ⇔ minimize sum of
	// -log ρ. Dijkstra over the transfer network.
	n := len(tg.verts)
	dist := make([]float64, n)
	parent := make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	pq := container.NewIndexedMinHeap(n)
	dist[si] = 0
	pq.Push(si, 0)
	for pq.Len() > 0 {
		u, du := pq.Pop()
		if u == di {
			break
		}
		if du > dist[u] {
			continue
		}
		for _, t := range tg.out[u] {
			pr := t.count / tg.outTotal[u] * absorb[t.to]
			if pr <= 0 {
				continue
			}
			nd := du - math.Log(pr)
			if nd < dist[t.to] {
				dist[t.to] = nd
				parent[t.to] = u
				pq.Push(t.to, nd)
			}
		}
	}
	if math.IsInf(dist[di], 1) {
		return nil, false
	}
	var rev []int
	for v := di; v != -1; v = parent[v] {
		rev = append(rev, v)
	}
	path := make(roadnet.Path, len(rev))
	for i, v := range rev {
		path[len(rev)-1-i] = tg.verts[v]
	}
	return path, true
}
