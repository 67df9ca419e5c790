package transfer

import (
	"maps"
	"slices"
	"time"

	"repro/internal/pref"
	"repro/internal/region"
	"repro/internal/roadnet"
	"repro/internal/sparse"
)

// Config tunes the transduction learning.
type Config struct {
	// AMR is the adjacency-matrix reduction threshold (paper default
	// 0.7): similarities below it are dropped.
	AMR float64
	// Mu1 weighs the Laplacian smoothing term of Eq. 2, Mu2 the L2
	// regularizer.
	Mu1, Mu2 float64
}

// DefaultConfig returns the configuration used in the paper's main
// experiments (amr = 0.7).
func DefaultConfig() Config {
	return Config{AMR: 0.7, Mu1: 1.0, Mu2: 0.01}
}

// Each column of Eq. 3 is solved until ‖r‖/‖b‖ < solveTol or for
// solveMaxIter iterations; an edge whose best propagated master
// probability is at most nullTol is null (gets fastest paths instead).
const (
	solveTol, solveMaxIter = 1e-8, 2000
	nullTol                = 1e-4
)

// Labeled is one training example: a region edge index (into
// Graph.Edges) with its learned preference.
type Labeled struct {
	EdgeID int
	Pref   pref.Preference
}

// Result holds the transfer output.
type Result struct {
	// Pref maps region-edge ID -> transferred preference, for every
	// *unlabeled* edge the propagation could label.
	Pref map[int]pref.Preference
	// Null lists unlabeled edges the propagation could not label.
	Null []int
	// Yhat is the propagated probability matrix, row-indexed like the
	// edge ordering passed to Run (labeled first); exposed for tests and
	// the Fig. 9 experiments.
	Yhat [][]float64
	// EdgeOrder maps Yhat row -> region-edge ID.
	EdgeOrder []int
	// SolveIterations sums solver iterations across the p columns.
	SolveIterations int
	// Rows is the dimension of the Eq. 3 system and NNZ the entries an
	// explicit matrix would store: similar pairs, both ways, plus the
	// diagonal. AssembleTime covers featurizing and finding the
	// similarity windows, SolveTime the block solve.
	Rows, NNZ               int
	AssembleTime, SolveTime time.Duration
}

// NullRate returns the share of unlabeled edges left null.
func (r *Result) NullRate() float64 {
	unlabeled := len(r.Pref) + len(r.Null)
	if unlabeled == 0 {
		return 0
	}
	return float64(len(r.Null)) / float64(unlabeled)
}

// Run performs transduction learning over the region graph: the labeled
// edges keep their preferences (first term of Eq. 2), preferences spread
// along the similarity graph (second term), and L2 regularization damps
// the result (third term). Unlabeled region edges — typically all
// B-edges, or held-out T-edges in the Fig. 9 experiments — receive
// transferred preferences. workers bounds the goroutines that find the
// windows and solve (≤ 0 means GOMAXPROCS); the result does not depend
// on it.
func Run(g *region.Graph, labeled []Labeled, targets []int, cfg Config, workers int) Result {
	// Order: labeled edges first (so S is a prefix diagonal), then
	// targets.
	order := make([]int, 0, len(labeled)+len(targets))
	seen := make(map[int]bool, len(labeled)+len(targets))
	for _, l := range labeled {
		seen[l.EdgeID] = true
		order = append(order, l.EdgeID)
	}
	for _, t := range targets {
		if !seen[t] {
			seen[t] = true
			order = append(order, t)
		}
	}
	n, p := len(order), NumColumns()

	// System A = S + µ1·L + µ2·I (Eq. 3, left side), as an operator.
	start := time.Now()
	a := newSystem(edgeFeatures(g, order), len(labeled), cfg, workers)
	assembleTime := time.Since(start)

	// Right-hand side S·Y: only labeled rows contribute, and only the
	// columns some label activates have anything to solve for — the
	// others' solution is exactly 0.
	slot := make([]int, p)
	for c := range slot {
		slot[c] = -1
	}
	k := 0
	for _, l := range labeled {
		for _, c := range Encode(l.Pref) {
			if slot[c] < 0 {
				slot[c] = k
				k++
			}
		}
	}
	b := make([]float64, n*k)
	for i, l := range labeled {
		for _, c := range Encode(l.Pref) {
			b[i*k+slot[c]] = 1
		}
	}

	// Solve A·Ŷ = S·Y, all active columns in lockstep.
	start = time.Now()
	x := make([]float64, n*k)
	iters := 0
	for _, res := range sparse.SolveBlock(a, x, b, k, solveTol, solveMaxIter, workers) {
		iters += res.Iterations
	}
	solveTime := time.Since(start)
	flat := make([]float64, n*p)
	yhat := make([][]float64, n)
	for i := range yhat {
		yhat[i] = flat[i*p : (i+1)*p : (i+1)*p]
		for c, sc := range slot {
			if sc >= 0 {
				yhat[i][c] = x[i*k+sc]
			}
		}
	}

	out := Result{
		Pref:            make(map[int]pref.Preference),
		Yhat:            yhat,
		EdgeOrder:       order,
		SolveIterations: iters,
		Rows:            n,
		NNZ:             a.NNZ(),
		AssembleTime:    assembleTime,
		SolveTime:       solveTime,
	}
	for i := len(labeled); i < n; i++ {
		if pf, ok := Decode(yhat[i]); ok {
			out.Pref[order[i]] = pf
		} else {
			out.Null = append(out.Null, order[i])
		}
	}
	return out
}

// AdjacencyDensity reports, for diagnostics and the Fig. 9(b)
// experiment, the number of similarity-graph edges that survive a given
// amr threshold over the given region edges.
func AdjacencyDensity(g *region.Graph, edgeIDs []int, amr float64) int {
	return similarity(edgeFeatures(g, edgeIDs), amr, 0).pairs / 2
}

// PathFinder materializes preferences into paths. It exists as an
// interface so tests can stub path construction.
type PathFinder interface {
	// FindPath returns a path from s to d honoring the preference.
	FindPath(p pref.Preference, s, d roadnet.VertexID) (roadnet.Path, bool)
	// FastestPath returns the plain fastest path.
	FastestPath(s, d roadnet.VertexID) (roadnet.Path, bool)
}

// Materialize fills the path sets of the target region edges (Step 3,
// Section V-C): for every pair of one transfer center from each region,
// the preference-aware Dijkstra constructs a path; edges whose
// preference is null get fastest paths, as in the paper. The paths are
// stored together, labeled edges in ID order and then the null ones, so
// the graph's trip table does not depend on map order; each is a trip
// of its own (region.Graph.AddBEdgePaths). It returns the number of
// paths attached.
func Materialize(g *region.Graph, res Result, finder PathFinder) int {
	var paths []region.BPath
	addPair := func(id, from int, s, d roadnet.VertexID, pf pref.Preference, hasPref bool) {
		var path roadnet.Path
		var ok bool
		if hasPref {
			path, ok = finder.FindPath(pf, s, d)
		} else {
			path, ok = finder.FastestPath(s, d)
		}
		if ok && len(path) >= 2 {
			paths = append(paths, region.BPath{Edge: id, From: from, Path: path})
		}
	}
	fill := func(id int, pf pref.Preference, hasPref bool) {
		e := g.Edges[id]
		e.Pref, e.HasPref = pf, hasPref
		r1, r2 := int(e.R1), int(e.R2)
		tc1 := g.TransferCenters(r1)
		tc2 := g.TransferCenters(r2)
		for _, a := range tc1 {
			for _, b := range tc2 {
				addPair(id, r1, a, b, pf, hasPref)
				addPair(id, r2, b, a, pf, hasPref)
			}
		}
	}
	for _, id := range slices.Sorted(maps.Keys(res.Pref)) {
		fill(id, res.Pref[id], true)
	}
	for _, id := range res.Null {
		fill(id, pref.Preference{}, false)
	}
	g.AddBEdgePaths(paths)
	return len(paths)
}
