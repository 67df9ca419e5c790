package pref

import (
	"slices"

	"repro/internal/roadnet"
	"repro/internal/route"
)

// Learner extracts routing preferences from path sets, following the
// coordinate-descent procedure of Section V-A: first choose the master
// travel-cost feature whose lowest-cost paths best match the ground
// truth, then test each candidate slave road-condition feature and keep
// the one that improves similarity the most (or none).
//
// Read literally the procedure costs 3 + 2·|Slaves| shortest-path
// searches per sampled path. Learn returns exactly what that exhaustive
// reading returns while running only the searches whose outcome is not
// already determined; the package documentation states the two pruning
// rules and why they are exact.
//
// A Learner is not safe for concurrent use: it owns search engines and
// scoring scratch.
type Learner struct {
	g *roadnet.Graph
	// eng answers the master-only searches. On a route.CHEngine fork
	// they ride the scalar CCH metrics serving keeps resident anyway.
	eng route.PathEngine
	// hier is eng when it is a route.CHEngine; it answers the
	// slave-restricted searches it can (package doc, "Engines").
	hier *route.CHEngine
	// dij answers the rest: plain Dijkstra, eng itself if it is one.
	dij *route.Engine
	out []route.SlaveMask // dij.OutTypes(), fetched on first Learn

	// MaxPaths caps how many paths of a T-edge's path set are used for
	// learning; 0 means all. Large T-edges carry hundreds of paths and
	// the cap keeps offline time linear in the number of T-edges.
	MaxPaths int
	// Slaves is the candidate slave feature set; defaults to
	// CandidateSlaves(). It holds at most 16 features.
	Slaves []SlaveFeature
	// MinImprovement is the similarity gain a slave feature must deliver
	// over the master-only path to be adopted.
	MinImprovement float64

	// Memo, when it was made for this learner's road network and
	// Slaves, answers the searches an earlier Learn — this learner's or
	// another sharing the memo — already ran for a ground truth.
	Memo *Memo

	// Searches accumulates, over every Learn call on this learner, what
	// became of the searches the exhaustive procedure would have run.
	Searches SearchStats

	// Scratch, reused across Learn calls.
	drawn    []roadnet.Path // Learn's sample
	truths   []truth
	feasible []bool
	bounds   []float64    // per truth: its Eq. 1 upper bound under ⟨m, s⟩
	path     roadnet.Path // the candidate being scored
	cand     []hop        // its hops
	mark     []uint32     // per road edge: member of the current ground truth iff == epoch
	epoch    uint32
}

// DefaultMaxPaths is the sample cap NewLearnerOn sets.
const DefaultMaxPaths = 8

// SearchStats splits the exhaustive procedure's (3 + 2·|Slaves|)
// searches per sampled path by what the learner did with each.
type SearchStats struct {
	// Run counts searches executed.
	Run int `json:"run"`
	// Reused counts restricted searches answered by the master-only
	// path, which the restriction leaves feasible (feasibility rule).
	Reused int `json:"reused"`
	// Bounded counts restricted searches never run because their
	// ⟨master, slave⟩ combination could not beat the incumbent
	// (upper-bound rule), from the start or part-way through.
	Bounded int `json:"bounded"`
	// Memo counts searches answered from the learner's Memo: an earlier
	// Learn ran them for the same ground truth (memo rule).
	Memo int `json:"memo"`
	// Hierarchy counts the searches of Run answered on a contraction
	// hierarchy; the other Run − Hierarchy ran on plain Dijkstra.
	Hierarchy int `json:"hierarchy"`
}

// Total is the number of searches the exhaustive procedure runs.
func (s SearchStats) Total() int { return s.Run + s.Reused + s.Bounded + s.Memo }

// maxSlaves is the most candidate slaves a Learner takes: the slaves
// forbidding a hop of a master-only candidate are a 16-bit set.
const maxSlaves = 16

// boundGuard absorbs floating-point rounding in the upper-bound rule:
// the bound is exact in real arithmetic and each side is computed with
// a handful of operations per path on values in [0, 1].
const boundGuard = 1e-12

// hop is one road edge of a path, with what the pruning rules need to
// know about it: the road types leaving its tail vertex and its own.
type hop struct {
	edge     roadnet.EdgeID
	out, typ SlaveFeature
	length   float64
}

// forbidden reports whether Algorithm 2 under slave s refuses to relax
// the hop: its tail has an out-edge satisfying s and the hop is not one.
func (h hop) forbidden(s SlaveFeature) bool { return h.out&s != 0 && h.typ&s == 0 }

// truth is one sampled ground-truth path, prepared once per Learn.
type truth struct {
	path   roadnet.Path
	hops   []hop   // road edges in path order, as Eq. 1 sees them
	length float64 // Σ hops[i].length: Eq. 1's denominator
	// Per master weight: the master-only candidate's Eq. 1 similarity,
	// and the slaves whose restriction forbids one of its hops — bit j
	// for Slaves[j], none when the destination is unreachable.
	sim0   [roadnet.NumCostWeights]float64
	forbid [roadnet.NumCostWeights]uint16
	entry  *memoEntry // the truth's memo entry; nil without one
}

// NewLearner returns a Learner over g with default settings, running
// every search on plain Dijkstra.
func NewLearner(g *roadnet.Graph) *Learner {
	return NewLearnerOn(route.NewEngine(g))
}

// NewLearnerOn returns a Learner with default settings whose
// master-only searches run on eng; the learner takes ownership of it
// (pass a Fork). Restricted searches run on eng when it is a
// route.CHEngine that answers them, else on plain Dijkstra.
func NewLearnerOn(eng route.PathEngine) *Learner {
	hier, _ := eng.(*route.CHEngine)
	dij, ok := eng.(*route.Engine)
	if !ok {
		dij = route.NewEngine(eng.Graph())
	}
	return &Learner{
		g:              eng.Graph(),
		eng:            eng,
		hier:           hier,
		dij:            dij,
		MaxPaths:       DefaultMaxPaths,
		Slaves:         CandidateSlaves(),
		MinImprovement: 1e-9,
	}
}

// Result reports a learned preference together with the similarity it
// achieves on the training paths.
type Result struct {
	Preference Preference
	// Similarity is the mean Eq. 1 similarity between the preference-
	// constructed paths and the ground-truth paths.
	Similarity float64
	// PathsUsed is how many paths participated after capping.
	PathsUsed int
}

// Learn extracts a single representative preference from a path set
// (typically the Pij of one T-edge). An empty or degenerate path set
// yields the fastest-path preference with zero similarity.
func (l *Learner) Learn(paths []roadnet.Path) Result {
	l.drawn = l.sampleInto(l.drawn, paths)
	sample := l.drawn
	if len(sample) == 0 {
		return Result{Preference: Preference{Master: roadnet.TT}, Similarity: 0}
	}
	if len(l.Slaves) > maxSlaves {
		panic("pref: Learner.Slaves holds more than 16 features")
	}
	var memo *Memo
	if l.Memo.serves(l) {
		memo = l.Memo
		memo.resetIfFull()
	}
	l.prepare(sample, memo)

	// Step 1: rank master cost features by master-only similarity.
	var sims [roadnet.NumCostWeights]float64
	for w := range sims {
		var total float64
		for i := range l.truths {
			total += l.truths[i].sim0[w]
		}
		sims[w] = total / float64(len(sample))
	}
	first, second := roadnet.Weight(0), roadnet.Weight(1)
	if sims[second] > sims[first] {
		first, second = second, first
	}
	for w := roadnet.Weight(2); w < roadnet.NumCostWeights; w++ {
		switch {
		case sims[w] > sims[first]:
			first, second = w, first
		case sims[w] > sims[second]:
			second = w
		}
	}

	// Step 2: best slave road-condition feature. When ground-truth
	// paths are dominated by a road-condition preference, the
	// master-only ranking of step 1 is noisy, so the descent keeps the
	// two best masters in play (still far cheaper than the full grid).
	best := Preference{Master: first, Slave: NoSlave}
	bestSim := sims[first]
	for _, m := range []roadnet.Weight{first, second} {
		for j, s := range l.Slaves {
			sim, ok := l.avgSim(m, j, bestSim+l.MinImprovement, memo)
			if ok && sim > bestSim+l.MinImprovement {
				bestSim = sim
				best = Preference{Master: m, Slave: s}
			}
		}
	}
	return Result{Preference: best, Similarity: bestSim, PathsUsed: len(sample)}
}

// LearnPerPath learns one preference per individual path. The Fig. 6(a)
// statistic — how many unique preferences a T-edge's path set produces —
// is computed from these.
func (l *Learner) LearnPerPath(paths []roadnet.Path) []Result {
	out := make([]Result, 0, len(paths))
	for _, p := range paths {
		if len(p) < 2 {
			continue
		}
		out = append(out, l.Learn([]roadnet.Path{p}))
	}
	return out
}

// ConstructPath builds the path the preference implies between s and d,
// using Algorithm 2. The boolean is false if d is unreachable.
func (l *Learner) ConstructPath(p Preference, s, d roadnet.VertexID) (roadnet.Path, bool) {
	if p.Slave.Empty() {
		path, _, ok := l.eng.Route(s, d, p.Master)
		return path, ok
	}
	path, ok, _ := l.appendRestricted(nil, s, d, p.Master, p.Slave)
	return path, ok
}

// appendRestricted runs the Algorithm 2 ⟨m, s⟩ search from src to dst,
// appending the path to buf: on the hierarchy when it answers, else on
// plain Dijkstra. onHier reports which.
func (l *Learner) appendRestricted(buf roadnet.Path, src, dst roadnet.VertexID, m roadnet.Weight, s SlaveFeature) (path roadnet.Path, ok, onHier bool) {
	if l.hier != nil {
		if path, _, ok, onHier = l.hier.TryAppendRouteMask(buf, src, dst, m, s.Mask()); onHier {
			return path, ok, true
		}
	}
	path, _, ok = l.dij.AppendRouteMask(buf, src, dst, m, s.Mask())
	return path, ok, false
}

// sample draws the paths Learn uses from a path set into a new slice.
func (l *Learner) sample(paths []roadnet.Path) []roadnet.Path { return l.sampleInto(nil, paths) }

// sampleInto is sample drawing into buf's storage.
func (l *Learner) sampleInto(buf, paths []roadnet.Path) []roadnet.Path {
	sample := buf[:0]
	for _, p := range paths {
		if len(p) >= 2 {
			sample = append(sample, p)
		}
	}
	if l.MaxPaths > 0 && len(sample) > l.MaxPaths {
		// Deterministic thinning: take evenly spaced paths so the sample
		// spans the whole set regardless of insertion order; in place,
		// since pick i reads an index ≥ i.
		step := float64(len(sample)) / float64(l.MaxPaths)
		for i := 0; i < l.MaxPaths; i++ {
			sample[i] = sample[int(float64(i)*step)]
		}
		sample = sample[:l.MaxPaths]
	}
	return sample
}

// prepare fills l.truths for the sample: each ground truth's hops and
// length, and per master weight the master-only candidate's similarity
// and forbidding slaves — the only searches Learn always runs, unless
// memo holds their values.
func (l *Learner) prepare(sample []roadnet.Path, memo *Memo) {
	if l.out == nil {
		l.out = l.dij.OutTypes()
		l.mark = make([]uint32, l.g.NumEdges())
	}
	// Within capacity this keeps every truth's hop buffers, including
	// those beyond the previous sample's length.
	l.truths = slices.Grow(l.truths[:0], len(sample))[:len(sample)]
	for i, gt := range sample {
		t := &l.truths[i]
		t.path = gt
		t.hops = l.hopsOf(t.hops[:0], gt)
		t.length = 0
		for _, h := range t.hops {
			t.length += h.length
		}
		t.entry = nil
		var h uint64
		if memo != nil {
			h = hashPath(gt)
			if t.entry = memo.find(h, gt); t.entry != nil {
				l.Searches.Memo += int(roadnet.NumCostWeights)
				t.sim0, t.forbid = t.entry.sim0, t.entry.forbid
				continue
			}
		}
		for w := roadnet.Weight(0); w < roadnet.NumCostWeights; w++ {
			l.Searches.Run++
			if l.hier != nil {
				l.Searches.Hierarchy++
			}
			t.sim0[w], t.forbid[w] = 0, 0
			var ok bool
			if l.path, _, ok = l.eng.AppendRoute(l.path[:0], gt[0], gt[len(gt)-1], w); ok {
				l.cand = l.hopsOf(l.cand[:0], l.path)
				t.sim0[w] = l.score(t, l.path, l.cand)
				t.forbid[w] = l.forbidding(l.cand)
			}
		}
		if memo != nil {
			t.entry = memo.add(h, gt, t.sim0, t.forbid)
		}
	}
}

// forbidding returns the slaves whose restriction forbids one of hops,
// bit j for Slaves[j]: the ones the feasibility rule does not cover.
func (l *Learner) forbidding(hops []hop) (bits uint16) {
	for j, s := range l.Slaves {
		for _, h := range hops {
			if h.forbidden(s) {
				bits |= 1 << j
				break
			}
		}
	}
	return bits
}

// hopsOf appends p's road edges to dst, skipping vertex pairs no edge
// connects (as Eq. 1 does).
func (l *Learner) hopsOf(dst []hop, p roadnet.Path) []hop {
	dst = slices.Grow(dst, len(p))
	for i := 1; i < len(p); i++ {
		e := l.g.FindEdge(p[i-1], p[i])
		if e == roadnet.NoEdge {
			continue
		}
		ed := l.g.Edge(e)
		dst = append(dst, hop{edge: e, out: SlaveFeature(l.out[ed.From]), typ: SlaveOf(ed.Type), length: ed.Length})
	}
	return dst
}

// score is SimEq1(g, t.path, cand) — same operations in the same order,
// so the same bits — with cand's hops already resolved and epoch marks
// in place of a per-call edge set.
func (l *Learner) score(t *truth, cand roadnet.Path, candHops []hop) float64 {
	if t.length == 0 {
		if samePath(t.path, cand) {
			return 1
		}
		return 0
	}
	l.epoch++
	if l.epoch == 0 { // wrapped; no stale mark may match
		clear(l.mark)
		l.epoch = 1
	}
	for _, h := range t.hops {
		l.mark[h.edge] = l.epoch
	}
	var shared float64
	for _, h := range candHops {
		if l.mark[h.edge] == l.epoch {
			shared += h.length
			l.mark[h.edge] = 0 // count repeated edges once
		}
	}
	return shared / t.length
}

// avgSim is the mean Eq. 1 similarity of the ⟨m, s⟩-constructed paths
// to the prepared ground truths, s = Slaves[j], or ok=false as soon as
// an upper bound on it fails to exceed floor (the upper-bound rule).
// Ground truths whose master-only candidate has no hop forbidden under
// s reuse that candidate's similarity (the feasibility rule); only the
// rest search, or recall the search from memo, each replacing its
// truth's bound in bound (total keeps exact bits).
func (l *Learner) avgSim(m roadnet.Weight, j int, floor float64, memo *Memo) (sim float64, ok bool) {
	n := len(l.truths)
	s, key := l.Slaves[j], restrictedKey(m, j)
	l.feasible, l.bounds = l.feasible[:0], l.bounds[:0]
	var bound float64
	for i := range l.truths {
		t := &l.truths[i]
		feasible := t.forbid[m]&(1<<j) == 0
		var b float64
		switch {
		case feasible:
			b = t.sim0[m]
		case t.length == 0:
			b = 1
		default:
			// Forbidden ground-truth edges cannot be shared.
			var lost float64
			for _, h := range t.hops {
				if h.forbidden(s) {
					lost += h.length
				}
			}
			b = 1 - lost/t.length
		}
		l.feasible = append(l.feasible, feasible)
		l.bounds = append(l.bounds, b)
		bound += b
	}

	var total float64
	for i := range l.truths {
		if bound/float64(n)+boundGuard <= floor {
			l.Searches.Bounded += n - i
			return 0, false
		}
		t := &l.truths[i]
		if l.feasible[i] {
			l.Searches.Reused++
			total += t.sim0[m]
			continue
		}
		var found float64
		if recalled, ok := memo.restricted(t.entry, key); ok {
			l.Searches.Memo++
			found = recalled
		} else {
			l.Searches.Run++
			var ok, onHier bool
			l.path, ok, onHier = l.appendRestricted(l.path[:0], t.path[0], t.path[len(t.path)-1], m, s)
			if onHier {
				l.Searches.Hierarchy++
			}
			if ok {
				l.cand = l.hopsOf(l.cand[:0], l.path)
				found = l.score(t, l.path, l.cand)
			}
			memo.remember(t.entry, key, found)
		}
		total += found
		bound += found - l.bounds[i]
	}
	return total / float64(n), true
}
