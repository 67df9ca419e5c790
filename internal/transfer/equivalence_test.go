package transfer_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/pref"
	"repro/internal/region"
	"repro/internal/roadnet"
	"repro/internal/sparse"
	"repro/internal/transfer"
	"repro/internal/worldgen"
)

// This file holds the pipeline Run replaced — all-pairs triplets →
// sparse.New → Laplacian → AddScaled → one cold unpreconditioned CG per
// column — as a test-only reference, and checks the windowed operator
// and the lockstep preconditioned solve against it on worldgen cities.

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// refLaplacian returns L = D − M with D the diagonal of row sums.
func refLaplacian(adj *sparse.Matrix) *sparse.Matrix {
	n := adj.Dim()
	coords := make([]sparse.Coord, 0, adj.NNZ()+n)
	deg := adj.RowSums()
	for i := 0; i < n; i++ {
		cols, vals := adj.Row(i)
		for k, c := range cols {
			coords = append(coords, sparse.Coord{Row: i, Col: int(c), Val: -vals[k]})
		}
		coords = append(coords, sparse.Coord{Row: i, Col: i, Val: deg[i]})
	}
	return sparse.New(n, coords)
}

// refAddScaled returns A + alpha·B + beta·I.
func refAddScaled(a *sparse.Matrix, alpha float64, b *sparse.Matrix, beta float64) *sparse.Matrix {
	n := a.Dim()
	coords := make([]sparse.Coord, 0, a.NNZ()+b.NNZ()+n)
	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		for k, c := range cols {
			coords = append(coords, sparse.Coord{Row: i, Col: int(c), Val: vals[k]})
		}
		cols, vals = b.Row(i)
		for k, c := range cols {
			coords = append(coords, sparse.Coord{Row: i, Col: int(c), Val: alpha * vals[k]})
		}
		if beta != 0 {
			coords = append(coords, sparse.Coord{Row: i, Col: i, Val: beta})
		}
	}
	return sparse.New(n, coords)
}

// refSystem assembles S + µ1·L + µ2·I from all-pairs ReSim triplets.
func refSystem(feats []transfer.Features, labeled int, cfg transfer.Config) *sparse.Matrix {
	n := len(feats)
	var coords []sparse.Coord
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if s := transfer.ReSim(feats[i], feats[j]); s >= cfg.AMR {
				coords = append(coords,
					sparse.Coord{Row: i, Col: j, Val: s},
					sparse.Coord{Row: j, Col: i, Val: s})
			}
		}
	}
	lap := refLaplacian(sparse.New(n, coords))
	sCoords := make([]sparse.Coord, labeled)
	for i := range sCoords {
		sCoords[i] = sparse.Coord{Row: i, Col: i, Val: 1}
	}
	return refAddScaled(sparse.New(n, sCoords), cfg.Mu1, lap, cfg.Mu2)
}

// refCG is unpreconditioned conjugate gradient from x = 0.
func refCG(a *sparse.Matrix, b []float64, tol float64, maxIter int) ([]float64, int) {
	n := a.Dim()
	x := make([]float64, n)
	r := append([]float64(nil), b...)
	p := append([]float64(nil), b...)
	ap := make([]float64, n)
	rs := sparse.Dot(r, r)
	bn := sparse.Norm2(b)
	if bn == 0 {
		bn = 1
	}
	iters := 0
	for ; iters < maxIter && math.Sqrt(rs)/bn >= tol; iters++ {
		a.MulVec(ap, p)
		alpha := rs / sparse.Dot(p, ap)
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rsNew := sparse.Dot(r, r)
		beta := rsNew / rs
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rs = rsNew
	}
	return x, iters
}

// refRun is the reference transduction of p at DefaultConfig and the
// solve's fixed tolerance: Ŷ solved column by column on the reference
// system, rows decoded with transfer.Decode.
func refRun(p *problem) (yhat [][]float64, prefs map[int]pref.Preference, null []int, iters int) {
	order := p.order()
	n, cols := len(order), transfer.NumColumns()
	yhat = make([][]float64, n)
	for i := range yhat {
		yhat[i] = make([]float64, cols)
	}
	for c := 0; c < cols; c++ {
		b := make([]float64, n)
		for i, l := range p.labeled {
			for _, lc := range transfer.Encode(l.Pref) {
				if lc == c {
					b[i] = 1
				}
			}
		}
		x, it := refCG(p.ref, b, transfer.SolveTol, transfer.SolveMaxIter)
		iters += it
		for i := range x {
			yhat[i][c] = x[i]
		}
	}
	prefs = make(map[int]pref.Preference)
	for i := len(p.labeled); i < n; i++ {
		if pf, ok := transfer.Decode(yhat[i]); ok {
			prefs[order[i]] = pf
		} else {
			null = append(null, order[i])
		}
	}
	return yhat, prefs, null, iters
}

// problem is one city's transduction input, as core.transduce poses it:
// the confidently learned T-edges label, the B-edges are targets, both
// in region-pair order.
type problem struct {
	g       *region.Graph
	labeled []transfer.Labeled
	targets []int
	// feats are the features of the system's rows (labeled, then
	// targets); ref is the reference system at DefaultConfig.
	feats []transfer.Features
	ref   *sparse.Matrix
}

// order lists the region-edge ID of every row.
func (p *problem) order() []int {
	order := make([]int, 0, len(p.labeled)+len(p.targets))
	for _, l := range p.labeled {
		order = append(order, l.EdgeID)
	}
	return append(order, p.targets...)
}

var (
	problemMu sync.Mutex
	problems  = map[string]*problem{}
	graphs    = map[string]*region.Graph{}
)

// cityGraph is the region graph core.Build makes of a worldgen city.
// The caller holds problemMu.
func cityGraph(tb testing.TB, scale string, seed int64) *region.Graph {
	tb.Helper()
	key := fmt.Sprintf("%s/%d", scale, seed)
	if g := graphs[key]; g != nil {
		return g
	}
	w := worldgen.Build(worldgen.MustScale(scale, seed))
	r, err := core.Build(w.Road, w.Train, core.Options{SkipMapMatching: true, Workers: 2})
	if err != nil {
		tb.Fatalf("core.Build(%s): %v", key, err)
	}
	graphs[key] = r.RegionGraph()
	return graphs[key]
}

func cityProblem(tb testing.TB, scale string, seed int64) *problem {
	tb.Helper()
	problemMu.Lock()
	defer problemMu.Unlock()
	key := fmt.Sprintf("%s/%d", scale, seed)
	if p := problems[key]; p != nil {
		return p
	}
	p := &problem{g: cityGraph(tb, scale, seed)}
	edges := append([]*region.Edge(nil), p.g.Edges...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].R1 != edges[j].R1 {
			return edges[i].R1 < edges[j].R1
		}
		return edges[i].R2 < edges[j].R2
	})
	for _, e := range edges {
		switch {
		case e.Kind == region.BEdge:
			p.targets = append(p.targets, int(e.ID))
		case e.HasPref:
			p.labeled = append(p.labeled, transfer.Labeled{EdgeID: int(e.ID), Pref: e.Pref})
		}
	}
	if len(p.labeled) == 0 || len(p.targets) == 0 {
		tb.Fatalf("%s: %d labeled, %d targets", key, len(p.labeled), len(p.targets))
	}
	p.feats = transfer.EdgeFeatureRows(p.g, p.order())
	p.ref = refSystem(p.feats, len(p.labeled), transfer.DefaultConfig())
	problems[key] = p
	return p
}

// cities runs f on three seeds of the bench city (three whose region
// graphs have B-edges to transfer to) and, outside -race and -short
// runs, of the ci city.
func cities(t *testing.T, f func(t *testing.T, p *problem)) {
	for _, c := range []struct {
		scale string
		seeds []int64
	}{{worldgen.ScaleBench, []int64{1, 3, 7}}, {worldgen.ScaleCI, []int64{1, 2, 3}}} {
		scale := c.scale
		for _, seed := range c.seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", scale, seed), func(t *testing.T) {
				if scale == worldgen.ScaleCI && (raceEnabled || testing.Short()) {
					t.Skip("ci-scale reference solves run in the un-instrumented CI step")
				}
				f(t, cityProblem(t, scale, seed))
			})
		}
	}
}

// TestAssembleMatchesReference: the operator Run solves is the
// reference system without being stored — the same entry count, and the
// triplet-assembled matrix's diagonal and product to rounding (it sums
// in prefix-sum order, not entry by entry) — and the same bits for any
// worker count.
func TestAssembleMatchesReference(t *testing.T) {
	cities(t, func(t *testing.T, p *problem) {
		checkSystem(t, p.feats, len(p.labeled), transfer.DefaultConfig(), p.ref)
	})
}

// checkSystem holds the operator over feats to want, the reference
// system, on two blocks of random operands.
func checkSystem(t *testing.T, feats []transfer.Features, labeled int, cfg transfer.Config, want *sparse.Matrix) {
	t.Helper()
	const nb = 2
	n := want.Dim()
	rng := rand.New(rand.NewSource(int64(n)))
	src := make([][sparse.BlockWidth]float64, n*nb)
	for i := range src {
		for l := range src[i] {
			src[i][l] = rng.Float64()
		}
	}
	wantDiag := want.Diag()
	var first [][sparse.BlockWidth]float64
	for _, workers := range []int{1, 3, 8} {
		a := transfer.NewSystem(feats, labeled, cfg, workers)
		if a.Dim() != n || a.NNZ() != want.NNZ() {
			t.Fatalf("workers %d: %d×%d with %d entries, reference %d×%d with %d", workers, a.Dim(), a.Dim(), a.NNZ(), n, n, want.NNZ())
		}
		for i, d := range a.Diag() {
			if math.Abs(d-wantDiag[i]) > 1e-10*math.Abs(wantDiag[i]) {
				t.Fatalf("workers %d: A[%d][%d] = %v, reference %v", workers, i, i, d, wantDiag[i])
			}
		}
		dst := make([][sparse.BlockWidth]float64, n*nb)
		var scratch [][sparse.BlockWidth]float64
		a.MulBlock(dst, src, nb, []bool{true, true}, &scratch)
		for i := 0; i < n; i++ {
			cols, vals := want.Row(i)
			for lane := 0; lane < nb*sparse.BlockWidth; lane++ {
				blk, l := lane/sparse.BlockWidth, lane%sparse.BlockWidth
				sum, scale := 0.0, 0.0
				for k, j := range cols {
					v := vals[k] * src[int(j)*nb+blk][l]
					sum, scale = sum+v, scale+math.Abs(v)
				}
				if got := dst[i*nb+blk][l]; math.Abs(got-sum) > 1e-10*scale {
					t.Fatalf("workers %d: (A·x)[%d] lane %d = %v, reference %v", workers, i, lane, got, sum)
				}
			}
		}
		if first == nil {
			first = dst
			continue
		}
		for i := range dst {
			for l := range dst[i] {
				if math.Float64bits(dst[i][l]) != math.Float64bits(first[i][l]) {
					t.Fatalf("workers %d: (A·x)[%d] lane %d = %v, one worker %v", workers, i, l, dst[i][l], first[i][l])
				}
			}
		}
	}
}

// decodeMargins returns how far the rows' decoded preferences are from
// flipping: the smallest gap between the best and second-best master
// column, the same for the slave block, and the smallest distance of a
// best master from the null threshold.
func decodeMargins(rows [][]float64, nullTol float64) (master, slave, null float64) {
	master, slave, null = math.Inf(1), math.Inf(1), math.Inf(1)
	gap := func(block []float64) (best, margin float64) {
		s := append([]float64(nil), block...)
		sort.Float64s(s)
		return s[len(s)-1], s[len(s)-1] - s[len(s)-2]
	}
	nm := int(roadnet.NumCostWeights)
	for _, row := range rows {
		best, m := gap(row[:nm])
		null = math.Min(null, math.Abs(best-nullTol))
		if best <= nullTol {
			continue
		}
		_, s := gap(row[nm:])
		master, slave = math.Min(master, m), math.Min(slave, s)
	}
	return master, slave, null
}

// TestRunMatchesReference is the oracle for the rebuilt numerical core:
// identical Pref and Null, ‖ΔŶ‖∞ ≤ 1e-6, and Ŷ bit-identical for every
// worker count.
func TestRunMatchesReference(t *testing.T) {
	cities(t, func(t *testing.T, p *problem) {
		cfg := transfer.DefaultConfig()
		wantY, wantPref, wantNull, refIters := refRun(p)
		got := transfer.Run(p.g, p.labeled, p.targets, cfg, 1)

		if len(got.Pref) != len(wantPref) {
			t.Errorf("%d transferred preferences, reference %d", len(got.Pref), len(wantPref))
		}
		for id, want := range wantPref {
			if pf, ok := got.Pref[id]; !ok || pf != want {
				t.Errorf("edge %d: transferred %v (%v), reference %v", id, pf, ok, want)
			}
		}
		if fmt.Sprint(got.Null) != fmt.Sprint(wantNull) {
			t.Errorf("null edges %v, reference %v", got.Null, wantNull)
		}
		if len(got.Yhat) != len(wantY) {
			t.Fatalf("Ŷ has %d rows, reference %d", len(got.Yhat), len(wantY))
		}
		maxDiff := 0.0
		for i := range wantY {
			for c := range wantY[i] {
				maxDiff = math.Max(maxDiff, math.Abs(got.Yhat[i][c]-wantY[i][c]))
			}
		}
		if maxDiff > 1e-6 || math.IsNaN(maxDiff) {
			t.Errorf("‖ΔŶ‖∞ = %g > 1e-6", maxDiff)
		}
		master, slave, null := decodeMargins(wantY[len(p.labeled):], transfer.NullTol)
		t.Logf("n = %d, nnz = %d, %d transferred, %d null; iterations %d (reference %d); ‖ΔŶ‖∞ = %.3g; min decode margin on target rows: master %.3g, slave %.3g, null threshold %.3g",
			got.Rows, got.NNZ, len(got.Pref), len(got.Null), got.SolveIterations, refIters, maxDiff, master, slave, null)

		for _, workers := range []int{2, 3, 8} {
			other := transfer.Run(p.g, p.labeled, p.targets, cfg, workers)
			if other.SolveIterations != got.SolveIterations {
				t.Errorf("workers %d: %d iterations, one worker %d", workers, other.SolveIterations, got.SolveIterations)
			}
			for i := range got.Yhat {
				for c := range got.Yhat[i] {
					if math.Float64bits(other.Yhat[i][c]) != math.Float64bits(got.Yhat[i][c]) {
						t.Fatalf("workers %d: Ŷ[%d][%d] = %x, one worker %x", workers, i, c,
							math.Float64bits(other.Yhat[i][c]), math.Float64bits(got.Yhat[i][c]))
					}
				}
			}
		}
	})
}

// TestAdjacencyDensityMatchesAllPairs: counting windows is exact — the
// count equals the all-pairs one at every amr the experiments sweep.
func TestAdjacencyDensityMatchesAllPairs(t *testing.T) {
	cities(t, func(t *testing.T, p *problem) {
		ids := make([]int, len(p.g.Edges))
		for i, e := range p.g.Edges {
			ids[i] = int(e.ID)
		}
		feats := transfer.EdgeFeatureRows(p.g, ids)
		amrs := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1}
		want := make([]int, len(amrs))
		for i := range feats {
			for j := i + 1; j < len(feats); j++ {
				s := transfer.ReSim(feats[i], feats[j])
				for a, amr := range amrs {
					if s >= amr {
						want[a]++
					}
				}
			}
		}
		for a, amr := range amrs {
			if got := transfer.AdjacencyDensity(p.g, ids, amr); got != want[a] {
				t.Errorf("amr %.1f: AdjacencyDensity = %d, all-pairs count %d", amr, got, want[a])
			}
		}
	})
}

// BenchmarkTransferRun times one transduction of the ci city.
func BenchmarkTransferRun(b *testing.B) {
	p := cityProblem(b, worldgen.ScaleCI, 1)
	cfg := transfer.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	var res transfer.Result
	for i := 0; i < b.N; i++ {
		res = transfer.Run(p.g, p.labeled, p.targets, cfg, 0)
	}
	b.ReportMetric(float64(res.SolveIterations), "iters/op")
	b.ReportMetric(float64(res.NNZ), "nnz")
}
