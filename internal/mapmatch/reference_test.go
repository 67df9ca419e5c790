package mapmatch

import (
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
			costs[j], paths[j] = m.boundedWithPaths(head, bound)
		}

		for i, cc := range lattice[t] {
			best := math.Inf(-1)
			bestPrev := -1
			var bestVia roadnet.Path
			for j, pc := range lattice[t-1] {
				if back[t-1][j].score == math.Inf(-1) || costs[j] == nil {
					continue
				}
				routeDist, via, ok := m.routeDistance(pc.cand, cc.cand, costs[j], paths[j])
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
// of the suite matches and on simulated feeds over worldgen seeds 1–20.
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
