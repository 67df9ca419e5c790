package mapmatch

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/route"
	"repro/internal/spatial"
	"repro/internal/worldgen"
)

// matchReference is the whole-trajectory decoder Matcher.Match was
// before it became the OnlineMatcher run to completion: thin the
// records, build the full candidate lattice, run Viterbi over it, then
// backtrack from the last level with a finite score. It is kept as the
// independent reference the incremental decoder is held to, path for
// path.
func (m *Matcher) matchReference(points []geo.Point) roadnet.Path {
	pts := m.thin(points)
	if len(pts) == 0 {
		return nil
	}

	// Candidate lattice.
	lattice := make([][]candidate, 0, len(pts))
	kept := make([]geo.Point, 0, len(pts))
	for _, p := range pts {
		cands := m.idx.EdgesWithin(p, candidateRadiusM)
		if len(cands) == 0 {
			continue // skip unmatched records, as Newson & Krumm do
		}
		if len(cands) > maxCandidates {
			cands = cands[:maxCandidates]
		}
		level := make([]candidate, len(cands))
		for i, c := range cands {
			z := c.Dist / m.cfg.SigmaM
			level[i] = candidate{cand: c, logEmit: -0.5 * z * z}
		}
		lattice = append(lattice, level)
		kept = append(kept, p)
	}
	if len(lattice) == 0 {
		return nil
	}
	if len(lattice) == 1 {
		c := lattice[0][0].cand
		e := m.g.Edge(c.Edge)
		return roadnet.Path{e.From, e.To}
	}

	// Viterbi.
	type cell struct {
		score float64
		prev  int
		// viaPath is the vertex path from the previous candidate's edge
		// head to this candidate's edge tail (exclusive of both edges).
		via roadnet.Path
	}
	prev := make([]cell, len(lattice[0]))
	for i, c := range lattice[0] {
		prev[i] = cell{score: c.logEmit, prev: -1}
	}
	back := make([][]cell, len(lattice))
	back[0] = prev

	for t := 1; t < len(lattice); t++ {
		cur := make([]cell, len(lattice[t]))
		straight := kept[t-1].Dist(kept[t])
		bound := routeFactor*straight + routeSlackM

		// One bounded Dijkstra per previous candidate, reused across all
		// current candidates.
		costs := make([]map[roadnet.VertexID]float64, len(lattice[t-1]))
		paths := make([]map[roadnet.VertexID]roadnet.Path, len(lattice[t-1]))
		for j, pc := range lattice[t-1] {
			if back[t-1][j].score == math.Inf(-1) {
				continue
			}
			head := m.g.Edge(pc.cand.Edge).To
			costs[j], paths[j] = m.refBoundedWithPaths(head, bound)
		}

		for i, cc := range lattice[t] {
			best := math.Inf(-1)
			bestPrev := -1
			var bestVia roadnet.Path
			for j, pc := range lattice[t-1] {
				if back[t-1][j].score == math.Inf(-1) || costs[j] == nil {
					continue
				}
				routeDist, via, ok := m.refRouteDistance(pc.cand, cc.cand, costs[j], paths[j])
				if !ok {
					continue
				}
				logTrans := -math.Abs(routeDist-straight) / betaM
				s := back[t-1][j].score + logTrans + cc.logEmit
				if s > best {
					best, bestPrev, bestVia = s, j, via
				}
			}
			cur[i] = cell{score: best, prev: bestPrev, via: bestVia}
		}
		back[t] = cur
	}

	// Find the last level with any finite score, then backtrack.
	last := len(lattice) - 1
	for last > 0 {
		ok := false
		for _, c := range back[last] {
			if c.score > math.Inf(-1) {
				ok = true
				break
			}
		}
		if ok {
			break
		}
		last--
	}
	bestI, bestS := 0, math.Inf(-1)
	for i, c := range back[last] {
		if c.score > bestS {
			bestI, bestS = i, c.score
		}
	}
	if bestS == math.Inf(-1) {
		return nil
	}

	// Reconstruct the edge/path chain.
	type step struct {
		edge roadnet.EdgeID
		via  roadnet.Path
	}
	var steps []step
	for t, i := last, bestI; t >= 0 && i >= 0; {
		c := back[t][i]
		steps = append(steps, step{edge: lattice[t][i].cand.Edge, via: c.via})
		i = c.prev
		t--
	}
	// Reverse.
	for a, b := 0, len(steps)-1; a < b; a, b = a+1, b-1 {
		steps[a], steps[b] = steps[b], steps[a]
	}

	var path roadnet.Path
	appendVertex := func(v roadnet.VertexID) {
		if len(path) == 0 || path[len(path)-1] != v {
			path = append(path, v)
		}
	}
	lastEdge := roadnet.NoEdge
	for _, s := range steps {
		if s.edge == lastEdge && len(s.via) == 0 {
			continue // consecutive records matched to the same edge
		}
		e := m.g.Edge(s.edge)
		for _, v := range s.via {
			appendVertex(v)
		}
		appendVertex(e.From)
		appendVertex(e.To)
		lastEdge = s.edge
	}
	if len(path) < 2 {
		return nil
	}
	return path
}

// refRouteDistance is the reference's routeDistance: the network
// distance between two candidate projection points, plus the
// intermediate vertex path from the first candidate's edge head to the
// second candidate's edge tail, both looked up in the maps
// refBoundedWithPaths filled.
func (m *Matcher) refRouteDistance(a, b spatial.EdgeCandidate, costs map[roadnet.VertexID]float64, paths map[roadnet.VertexID]roadnet.Path) (float64, roadnet.Path, bool) {
	ea, eb := m.g.Edge(a.Edge), m.g.Edge(b.Edge)
	if a.Edge == b.Edge {
		if b.Frac >= a.Frac {
			return (b.Frac - a.Frac) * ea.Length, nil, true
		}
		// Going backwards on the same edge requires a loop; treat like
		// distinct edges below via the head-to-tail route.
	}
	tailDist := (1 - a.Frac) * ea.Length
	headDist := b.Frac * eb.Length
	d, ok := costs[eb.From]
	if !ok {
		return 0, nil, false
	}
	via := paths[eb.From]
	if eb.From == ea.To {
		via = nil
	}
	return tailDist + d + headDist, via, true
}

// refBoundedWithPaths runs a bounded Dijkstra from s over distance and
// reconstructs, for every settled vertex, the intermediate vertex chain
// from s: each vertex's predecessor is the tail of its first in-edge
// whose tail is settled and tight within 1e-6; a chain that meets a
// vertex with no such in-edge is empty, and so is one whose first
// predecessor is s itself.
func (m *Matcher) refBoundedWithPaths(s roadnet.VertexID, bound float64) (map[roadnet.VertexID]float64, map[roadnet.VertexID]roadnet.Path) {
	costs := refBoundedCosts(m.g, s, bound)
	paths := make(map[roadnet.VertexID]roadnet.Path, len(costs))
	preds := make(map[roadnet.VertexID]roadnet.VertexID, len(costs))
	for v, dv := range costs {
		for _, eid := range m.g.In(v) {
			e := m.g.Edge(eid)
			du, ok := costs[e.From]
			if !ok {
				continue
			}
			if math.Abs(du+e.Length-dv) < 1e-6 {
				preds[v] = e.From
				break
			}
		}
	}
	for v := range costs {
		if v == s {
			continue
		}
		var chain roadnet.Path
		u := v
		for u != s {
			p, ok := preds[u]
			if !ok {
				chain = nil
				break
			}
			u = p
			if u != s {
				chain = append(chain, u)
			}
		}
		if chain == nil {
			paths[v] = roadnet.Path{}
			continue
		}
		for a, b := 0, len(chain)-1; a < b; a, b = a+1, b-1 {
			chain[a], chain[b] = chain[b], chain[a]
		}
		paths[v] = append(roadnet.Path{s}, chain...)
	}
	paths[s] = roadnet.Path{}
	return costs, paths
}

// refBoundedCosts is a textbook lazy-deletion Dijkstra from s over
// distance, independent of package route: the cost of every vertex
// within bound of s.
func refBoundedCosts(g *roadnet.Graph, s roadnet.VertexID, bound float64) map[roadnet.VertexID]float64 {
	costs := make(map[roadnet.VertexID]float64)
	best := map[roadnet.VertexID]float64{s: 0}
	q := &refQueue{{v: s}}
	for q.Len() > 0 {
		it := heap.Pop(q).(refItem)
		if _, done := costs[it.v]; done || it.d > best[it.v] {
			continue
		}
		if it.d > bound {
			break
		}
		costs[it.v] = it.d
		for _, eid := range g.Out(it.v) {
			to := g.Edge(eid).To
			if _, done := costs[to]; done {
				continue
			}
			alt := it.d + g.EdgeWeight(eid, roadnet.DI)
			if d, seen := best[to]; !seen || alt < d {
				best[to] = alt
				heap.Push(q, refItem{v: to, d: alt})
			}
		}
	}
	return costs
}

type refItem struct {
	v roadnet.VertexID
	d float64
}

// refQueue is refBoundedCosts's container/heap priority queue.
type refQueue []refItem

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].d < q[j].d }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(refItem)) }
func (q *refQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// thin drops records closer than minSpacingM to their predecessor.
func (m *Matcher) thin(points []geo.Point) []geo.Point {
	if len(points) == 0 {
		return nil
	}
	out := []geo.Point{points[0]}
	for _, p := range points[1:] {
		if p.Dist(out[len(out)-1]) >= minSpacingM {
			out = append(out, p)
		}
	}
	// Always keep the final record so the destination is represented.
	if last := points[len(points)-1]; out[len(out)-1] != last {
		out = append(out, last)
	}
	return out
}

// TestMatchEqualsReference holds Match (the incremental decoder run to
// completion) to matchReference, path for path, on the inputs the rest
// of the suite matches, on noisy walks over uniform grids and on
// simulated feeds over worldgen seeds 1–20.
//
// The grid walks are the tie-heavy inputs: between two records a few
// blocks apart many routes have the same length, so which one a
// transition's via chain follows is decided by the predecessor rule
// alone, not by the network. A decoder that took its chains from
// Dijkstra's parent pointers instead of the rule passes the worldgen
// half and fails this one.
func TestMatchEqualsReference(t *testing.T) {
	check := func(name string, m *Matcher, pts []geo.Point) bool {
		t.Helper()
		got, want := m.Match(pts), m.matchReference(pts)
		if !pathsEqual(got, want) {
			t.Fatalf("%s: Match %v != reference %v", name, got, want)
		}
		return len(want) >= 2
	}

	grid := roadnet.GenerateGrid(8, 8, 120, roadnet.Tertiary)
	truth, _, _ := route.NewEngine(grid).Shortest(0, 63)
	check("grid walk", matcherOver(grid), noisyWalk(grid, truth, 20, 5, rand.New(rand.NewSource(1))))
	check("grid walk, high noise", NewMatcher(grid, spatial.NewIndex(grid, 200), Config{SigmaM: 20}),
		noisyWalk(grid, truth, 25, 18, rand.New(rand.NewSource(2))))
	small := matcherOver(roadnet.GenerateGrid(4, 4, 100, roadnet.Tertiary))
	check("nil", small, nil)
	check("far", small, []geo.Point{geo.Pt(1e7, 1e7), geo.Pt(1e7, 1e7+50)})
	check("single", small, []geo.Point{geo.Pt(150, 2)})

	walks := 0
	for _, gc := range []struct {
		n       int
		spacing float64
	}{{8, 120}, {12, 80}} {
		g := roadnet.GenerateGrid(gc.n, gc.n, gc.spacing, roadnet.Tertiary)
		m, eng := matcherOver(g), route.NewEngine(g)
		rng := rand.New(rand.NewSource(int64(gc.n)))
		for _, noise := range []float64{3, 12, 25} {
			for _, step := range []float64{35, 70, 140} {
				for k := 0; k < 16; k++ {
					s, d := roadnet.VertexID(rng.Intn(g.NumVertices())), roadnet.VertexID(rng.Intn(g.NumVertices()))
					truth, _, ok := eng.Shortest(s, d)
					if !ok || len(truth) < 2 {
						continue
					}
					name := fmt.Sprintf("%dx%d grid, noise %.0f m, step %.0f m, walk %d→%d", gc.n, gc.n, noise, step, s, d)
					if check(name, m, noisyWalk(g, truth, step, noise, rng)) {
						walks++
					}
				}
			}
		}
	}
	if walks < 200 {
		t.Fatalf("only %d grid walks matched; the tie-heavy half has no teeth", walks)
	}

	const perSeed = 30
	for seed := int64(1); seed <= 20; seed++ {
		w := worldgen.Build(worldgen.MustScale(worldgen.ScaleBench, seed))
		m := NewMatcher(w.Road, spatial.NewIndex(w.Road, 300), Config{})
		matched := 0
		for i := 0; i < perSeed; i++ {
			tr := w.All[i*len(w.All)/perSeed]
			pts := make([]geo.Point, len(tr.Records))
			for j, r := range tr.Records {
				pts[j] = r.P
			}
			if check(fmt.Sprintf("seed %d trip %d", seed, tr.ID), m, pts) {
				matched++
			}
		}
		if matched < perSeed/2 {
			t.Fatalf("seed %d: only %d/%d trips matched; the comparison has no teeth", seed, matched, perSeed)
		}
	}
}
