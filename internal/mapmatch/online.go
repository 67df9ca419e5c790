package mapmatch

import (
	"math"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

// onlineCell is one lattice cell retained by the incremental decoder:
// the candidate with its emission score, the Viterbi score, the back
// pointer into the previous retained level, and the via path from the
// previous candidate's edge head to this candidate's edge tail.
type onlineCell struct {
	cand  candidate
	score float64
	prev  int
	via   roadnet.Path
}

// OnlineMatcher decodes the map-matching HMM incrementally: points are
// observed one at a time, the candidate lattice is extended level by
// level, and the prefix of the decode that no future observation can
// change — the part where every surviving Viterbi chain passes through
// one common ancestor — is committed eagerly, so memory stays bounded
// by the unstable suffix instead of the whole trajectory.
//
// Matcher.Match is this decoder run to completion — Observe each point,
// then Close — so the streaming pipeline matches a trip exactly as the
// offline pass does, by construction. The whole-trajectory lattice
// decoder Match used to be survives as matchReference
// (reference_test.go); tests hold this decoder to it path for path,
// including thinning, skipped records, single points and broken
// transitions.
//
// An OnlineMatcher inherits its parent Matcher's concurrency contract:
// neither the Matcher nor any OnlineMatcher created from it may be
// used concurrently with another.
type OnlineMatcher struct {
	m *Matcher

	// Thinning state: the last kept and the last seen record.
	haveThin bool
	lastThin geo.Point
	lastRaw  geo.Point

	// Retained (uncommitted) lattice suffix. lastP is the kept point
	// of the newest retained level; total counts levels ever appended.
	levels    [][]onlineCell
	lastP     geo.Point
	total     int
	firstEdge roadnet.EdgeID // first candidate of the first level
	dead      bool           // a level scored all -inf; suffix is discarded
	closed    bool

	// Committed reconstruction state: the emitted vertex sequence and
	// the edge of the last emitted step.
	path     roadnet.Path
	lastEdge roadnet.EdgeID
}

// NewOnline returns an incremental decoder over m's graph, index and
// configuration. Create one per trajectory segment.
func (m *Matcher) NewOnline() *OnlineMatcher {
	return &OnlineMatcher{m: m, firstEdge: roadnet.NoEdge, lastEdge: roadnet.NoEdge}
}

// Observe extends the decode with the next GPS point. Points closer
// than minSpacingM to the previously kept point are thinned away (1 Hz
// feeds are heavily oversampled); Observe after Close is a no-op.
func (o *OnlineMatcher) Observe(p geo.Point) {
	if o.closed {
		return
	}
	o.lastRaw = p
	if o.haveThin && p.Dist(o.lastThin) < minSpacingM {
		return
	}
	o.haveThin = true
	o.lastThin = p
	o.observeKept(p)
}

// observeKept appends one lattice level for a kept point and advances
// the Viterbi frontier.
func (o *OnlineMatcher) observeKept(p geo.Point) {
	if o.dead {
		// A whole-trajectory Viterbi would score this and every later
		// level -inf and backtrack from the last finite level; freezing
		// here is the same answer.
		return
	}
	cands := o.m.idx.EdgesWithin(p, candidateRadiusM)
	if len(cands) == 0 {
		return // skip unmatched records, as Newson & Krumm do
	}
	if len(cands) > maxCandidates {
		cands = cands[:maxCandidates]
	}
	level := make([]onlineCell, len(cands))
	for i, c := range cands {
		z := c.Dist / o.m.cfg.SigmaM
		level[i] = onlineCell{
			cand:  candidate{cand: c, logEmit: -0.5 * z * z},
			score: math.Inf(-1),
			prev:  -1,
		}
	}
	if o.total == 0 {
		o.firstEdge = cands[0].Edge
	}
	o.total++

	if len(o.levels) == 0 {
		for i := range level {
			level[i].score = level[i].cand.logEmit
		}
		o.levels = append(o.levels, level)
		o.lastP = p
		return
	}

	prev := o.levels[len(o.levels)-1]
	straight := o.lastP.Dist(p)
	bound := routeFactor*straight + routeSlackM

	// One bounded Dijkstra per previous candidate, reused across all
	// current candidates.
	costs := make([]map[roadnet.VertexID]float64, len(prev))
	paths := make([]map[roadnet.VertexID]roadnet.Path, len(prev))
	for j, pc := range prev {
		if pc.score == math.Inf(-1) {
			continue
		}
		head := o.m.g.Edge(pc.cand.cand.Edge).To
		costs[j], paths[j] = o.m.boundedWithPaths(head, bound)
	}

	alive := false
	for i := range level {
		best := math.Inf(-1)
		bestPrev := -1
		var bestVia roadnet.Path
		for j, pc := range prev {
			if pc.score == math.Inf(-1) || costs[j] == nil {
				continue
			}
			routeDist, via, ok := o.m.routeDistance(pc.cand.cand, level[i].cand.cand, costs[j], paths[j])
			if !ok {
				continue
			}
			logTrans := -math.Abs(routeDist-straight) / betaM
			s := pc.score + logTrans + level[i].cand.logEmit
			if s > best {
				best, bestPrev, bestVia = s, j, via
			}
		}
		level[i].score, level[i].prev, level[i].via = best, bestPrev, bestVia
		if best > math.Inf(-1) {
			alive = true
		}
	}
	if !alive {
		o.dead = true
		return
	}
	o.levels = append(o.levels, level)
	o.lastP = p
	o.commitStable()
}

// commitStable emits the decode prefix that can no longer change.
// Future levels extend only from the newest level's alive cells, so if
// all of their back-pointer chains pass through one common ancestor
// cell, the unique chain up to that ancestor is final: its steps are
// appended to the committed path and the retained lattice is re-rooted
// just after it.
func (o *OnlineMatcher) commitStable() {
	last := len(o.levels) - 1
	if last < 1 {
		return
	}
	reach := make(map[int]bool, len(o.levels[last]))
	for i, c := range o.levels[last] {
		if c.score > math.Inf(-1) {
			reach[i] = true
		}
	}
	commit, commitIdx := -1, -1
	for l := last; l > 0; l-- {
		next := make(map[int]bool, len(reach))
		for i := range reach {
			if p := o.levels[l][i].prev; p >= 0 {
				next[p] = true
			}
		}
		reach = next
		if len(reach) == 1 {
			for j := range reach {
				commit, commitIdx = l-1, j
			}
			break
		}
	}
	if commit < 0 {
		return
	}
	o.emitChain(commit, commitIdx)
	retained := o.levels[commit+1:]
	o.levels = append(o.levels[:0:0], retained...)
	for i := range o.levels[0] {
		o.levels[0][i].prev = -1
	}
}

// emitChain walks back pointers from cell (level, idx) to the retained
// root and emits the steps in forward order.
func (o *OnlineMatcher) emitChain(level, idx int) {
	chain := make([]int, level+1)
	for l := level; l >= 0 && idx >= 0; l-- {
		chain[l] = idx
		idx = o.levels[l][idx].prev
	}
	for l := 0; l <= level; l++ {
		c := o.levels[l][chain[l]]
		o.emitStep(c.cand.cand.Edge, c.via)
	}
}

// emitStep appends one matched edge (plus its via chain) to the
// committed path, skipping a step that stays on the previous edge and
// any vertex that repeats the path's last one.
func (o *OnlineMatcher) emitStep(edge roadnet.EdgeID, via roadnet.Path) {
	if edge == o.lastEdge && len(via) == 0 {
		return // consecutive records matched to the same edge
	}
	e := o.m.g.Edge(edge)
	for _, v := range via {
		o.appendVertex(v)
	}
	o.appendVertex(e.From)
	o.appendVertex(e.To)
	o.lastEdge = edge
}

func (o *OnlineMatcher) appendVertex(v roadnet.VertexID) {
	if len(o.path) == 0 || o.path[len(o.path)-1] != v {
		o.path = append(o.path, v)
	}
}

// StablePrefix returns a copy of the committed prefix of the matched
// path — the part no future Observe can change. It grows monotonically
// and is always a prefix of the path Close eventually returns.
func (o *OnlineMatcher) StablePrefix() roadnet.Path {
	return append(roadnet.Path(nil), o.path...)
}

// Close finishes the decode and returns the matched path, or nil when
// no consistent alignment exists. The decoder cannot be reused
// afterwards.
func (o *OnlineMatcher) Close() roadnet.Path {
	if o.closed {
		return nil
	}
	o.closed = true
	// Always keep the final record so the destination is represented.
	if o.haveThin && o.lastRaw != o.lastThin {
		o.observeKept(o.lastRaw)
	}
	if o.total == 0 {
		return nil
	}
	if o.total == 1 {
		e := o.m.g.Edge(o.firstEdge)
		o.levels = nil
		return roadnet.Path{e.From, e.To}
	}
	last := len(o.levels) - 1
	bestI, bestS := 0, math.Inf(-1)
	for i, c := range o.levels[last] {
		if c.score > bestS {
			bestI, bestS = i, c.score
		}
	}
	if bestS > math.Inf(-1) {
		o.emitChain(last, bestI)
	}
	o.levels = nil
	if len(o.path) < 2 {
		return nil
	}
	return o.path
}
