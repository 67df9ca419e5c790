package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// blockSystem is an Eq. 3-shaped system on a chain with a few chords —
// unlike a dense random graph its spectrum is spread out, so CG's
// iteration count depends on the right-hand side — with k right-hand
// sides of growing support (so columns converge at different
// iterations) and, when zeroCol ≥ 0, one all-zero column in their
// midst. Every other row is labeled.
func blockSystem(rng *rand.Rand, n, k, zeroCol int) (*Matrix, []float64) {
	var adj []Coord
	for i := 0; i+1 < n; i++ {
		v := 0.7 + 0.3*rng.Float64()
		adj = append(adj, Coord{i, i + 1, v}, Coord{i + 1, i, v})
	}
	for e := 0; e < n/10; e++ {
		if i, j := rng.Intn(n), rng.Intn(n); i != j {
			adj = append(adj, Coord{i, j, 0.8}, Coord{j, i, 0.8})
		}
	}
	var labeled []Coord
	for i := 0; i < n; i += 2 {
		labeled = append(labeled, Coord{i, i, 1})
	}
	a := AddScaled(New(n, labeled), 1, Laplacian(New(n, adj)), 0.01)
	b := make([]float64, n*k)
	for c := 0; c < k; c++ {
		for i := 0; c != zeroCol && i <= 2*c*c && i < n; i += 2 {
			b[i*k+c] = 1
		}
	}
	return a, b
}

// columns extracts columns [lo, hi) of a row-major n×k operand.
func columns(v []float64, n, k, lo, hi int) []float64 {
	out := make([]float64, 0, n*(hi-lo))
	for i := 0; i < n; i++ {
		out = append(out, v[i*k+lo:i*k+hi]...)
	}
	return out
}

// TestSolveBlockMatchesSingleColumn is the lockstep contract: whatever
// block a column is solved in — every contiguous grouping of nine
// columns, every worker count — its solution, iteration count and
// convergence flag are bit-for-bit those of the k = 1 solve.
func TestSolveBlockMatchesSingleColumn(t *testing.T) {
	const n, k = 60, 9
	a, b := blockSystem(rand.New(rand.NewSource(21)), n, k, 4)
	res := checkLockstep(t, a, b, k)
	distinct := map[int]bool{}
	for _, r := range res {
		distinct[r.Iterations] = true
	}
	if res[4].Iterations != 0 || len(distinct) < 3 {
		t.Fatalf("columns froze at iterations %v; want the zero column at 0 and the others at no fewer than two different counts", res)
	}
}

// checkLockstep solves each of the k columns of b alone, then in every
// contiguous block on 1, 2, 3 and 8 workers, and requires the block
// solves to reproduce the single-column ones bit for bit. It returns
// the single-column results.
func checkLockstep(t *testing.T, a Operator, b []float64, k int) []SolveResult {
	t.Helper()
	const tol, maxIter = 1e-10, 500
	n := a.Dim()
	wantX := make([][]float64, k)
	wantRes := make([]SolveResult, k)
	for c := 0; c < k; c++ {
		wantX[c] = make([]float64, n)
		wantRes[c] = CG(a, wantX[c], columns(b, n, k, c, c+1), tol, maxIter)
		if !wantRes[c].Converged {
			t.Fatalf("column %d did not converge: %+v", c, wantRes[c])
		}
	}
	for lo := 0; lo < k; lo++ {
		for hi := lo + 1; hi <= k; hi++ {
			for _, workers := range []int{1, 2, 3, 8} {
				kb := hi - lo
				x := make([]float64, n*kb)
				res := SolveBlock(a, x, columns(b, n, k, lo, hi), kb, tol, maxIter, workers)
				for c := lo; c < hi; c++ {
					if res[c-lo] != wantRes[c] {
						t.Fatalf("block [%d,%d) workers %d column %d: %+v, single-column %+v", lo, hi, workers, c, res[c-lo], wantRes[c])
					}
					for i := 0; i < n; i++ {
						if got, want := x[i*kb+c-lo], wantX[c][i]; math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("block [%d,%d) workers %d: x[%d][%d] = %x, single-column %x", lo, hi, workers, i, c, math.Float64bits(got), math.Float64bits(want))
						}
					}
				}
			}
		}
	}
	return wantRes
}

// stencilOp is an Eq. 3-shaped system on a chain, applied as a
// three-point stencil and never stored: (A·x)ᵢ = dᵢ·xᵢ − wᵢ₋₁·xᵢ₋₁ −
// wᵢ·xᵢ₊₁. It passes the neighbour sums through its scratch, so two
// column groups sharing one would race.
type stencilOp struct {
	w    []float64 // w[i] couples rows i and i+1
	diag []float64
}

// stencilSystem returns a stencilOp over n rows, every other one
// labeled, and the same system stored.
func stencilSystem(rng *rand.Rand, n int) (*stencilOp, *Matrix) {
	op := &stencilOp{w: make([]float64, n-1), diag: make([]float64, n)}
	var coords []Coord
	for i := range op.w {
		op.w[i] = 0.7 + 0.3*rng.Float64()
		op.diag[i] += op.w[i]
		op.diag[i+1] += op.w[i]
		coords = append(coords, Coord{i, i + 1, -op.w[i]}, Coord{i + 1, i, -op.w[i]})
	}
	for i := range op.diag {
		if i%2 == 0 {
			op.diag[i]++
		}
		op.diag[i] += 0.01
		coords = append(coords, Coord{i, i, op.diag[i]})
	}
	return op, New(n, coords)
}

func (o *stencilOp) Dim() int { return len(o.diag) }

func (o *stencilOp) Diag() []float64 { return append([]float64(nil), o.diag...) }

func (o *stencilOp) MulBlock(dst, src [][BlockWidth]float64, nb int, live []bool, scratch *[][BlockWidth]float64) {
	n := len(o.diag)
	if len(*scratch) < n {
		*scratch = make([][BlockWidth]float64, n)
	}
	nbr := *scratch
	for blk, ok := range live {
		if !ok {
			continue
		}
		for i := range nbr[:n] {
			nbr[i] = [BlockWidth]float64{}
			for l := range nbr[i] {
				if i > 0 {
					nbr[i][l] += o.w[i-1] * src[(i-1)*nb+blk][l]
				}
				if i+1 < n {
					nbr[i][l] += o.w[i] * src[(i+1)*nb+blk][l]
				}
			}
		}
		for i := range nbr[:n] {
			for l := range nbr[i] {
				dst[i*nb+blk][l] = o.diag[i]*src[i*nb+blk][l] - nbr[i][l]
			}
		}
	}
}

// TestSolveBlockOperator: SolveBlock needs nothing of A but its action.
// A stencil operator keeps the lockstep contract — bit-identical under
// every grouping and worker count, each group with its own scratch —
// and solves the system its stored matrix solves.
func TestSolveBlockOperator(t *testing.T) {
	const n, k = 60, 6
	op, m := stencilSystem(rand.New(rand.NewSource(8)), n)
	b := make([]float64, n*k)
	for c := 0; c < k; c++ {
		for i := 0; i <= 3*c*c && i < n; i += 2 {
			b[i*k+c] = 1
		}
	}
	checkLockstep(t, op, b, k)
	x, y := make([]float64, n*k), make([]float64, n*k)
	SolveBlock(op, x, b, k, 1e-12, 500, 3)
	SolveBlock(m, y, b, k, 1e-12, 500, 3)
	for i := range x {
		if math.Abs(x[i]-y[i]) > 1e-9 {
			t.Fatalf("x[%d][%d] = %v through the stencil, %v through the stored matrix", i/k, i%k, x[i], y[i])
		}
	}
}

// TestSolveBlockInitialGuess checks that x is honoured as a starting
// point: restarting from a converged solution takes no iterations.
func TestSolveBlockInitialGuess(t *testing.T) {
	const n, k = 30, 3
	a, b := blockSystem(rand.New(rand.NewSource(5)), n, k, -1)
	x := make([]float64, n*k)
	for _, r := range SolveBlock(a, x, b, k, 1e-9, 500, 2) {
		if !r.Converged || r.Iterations == 0 {
			t.Fatalf("cold solve: %+v", r)
		}
	}
	for c, r := range SolveBlock(a, x, b, k, 1e-8, 500, 2) {
		if !r.Converged || r.Iterations != 0 {
			t.Fatalf("column %d restarted from its solution: %+v", c, r)
		}
	}
}

// TestSolveBlockDegenerate drives the systems a preconditioner that
// divides by the diagonal could turn into NaN.
func TestSolveBlockDegenerate(t *testing.T) {
	// Rows 0 and 1 are coupled and labeled; row 2 is isolated with a
	// zero diagonal (µ2 = 0, unlabeled, no neighbours).
	singular := New(3, []Coord{{0, 0, 2}, {0, 1, -1}, {1, 0, -1}, {1, 1, 2}})
	spd, _ := spdSystem(rand.New(rand.NewSource(2)), 12)
	rhs := func(n, k int, cols ...int) []float64 {
		b := make([]float64, n*k)
		for _, c := range cols {
			for i := 0; i < n/2; i++ {
				b[i*k+c] = float64(1 + i + c)
			}
		}
		return b
	}
	for _, tc := range []struct {
		name      string
		a         *Matrix
		k         int
		b         []float64
		maxIter   int
		converged []bool
		zeroIter  []bool // columns that must take no iterations
		zeroRows  []int  // rows of X that must stay exactly 0
	}{
		{name: "zero diagonal on an isolated row", a: singular, k: 1, b: []float64{1, 1, 0}, maxIter: 100,
			converged: []bool{true}, zeroIter: []bool{false}, zeroRows: []int{2}},
		{name: "no right-hand side at all", a: spd, k: 5, b: rhs(12, 5), maxIter: 100,
			converged: []bool{true, true, true, true, true}, zeroIter: []bool{true, true, true, true, true},
			zeroRows: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}},
		{name: "zero column inside a live block", a: spd, k: 3, b: rhs(12, 3, 0, 2), maxIter: 100,
			converged: []bool{true, true, true}, zeroIter: []bool{false, true, false}},
		{name: "MaxIter reached", a: spd, k: 3, b: rhs(12, 3, 0, 2), maxIter: 2,
			converged: []bool{false, true, false}, zeroIter: []bool{false, true, false}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.a.Dim()
			x := make([]float64, n*tc.k)
			res := SolveBlock(tc.a, x, tc.b, tc.k, 1e-10, tc.maxIter, 2)
			for i, v := range x {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("x[%d] = %v", i, v)
				}
			}
			for c, r := range res {
				if math.IsNaN(r.Residual) {
					t.Errorf("column %d: residual NaN", c)
				}
				if r.Converged != tc.converged[c] {
					t.Errorf("column %d: %+v, want Converged = %v", c, r, tc.converged[c])
				}
				if (r.Iterations == 0) != tc.zeroIter[c] {
					t.Errorf("column %d: %d iterations, want zero = %v", c, r.Iterations, tc.zeroIter[c])
				}
				if !tc.converged[c] && r.Iterations != tc.maxIter {
					t.Errorf("column %d: stopped unconverged after %d iterations, want MaxIter = %d", c, r.Iterations, tc.maxIter)
				}
			}
			for _, i := range tc.zeroRows {
				for c := 0; c < tc.k; c++ {
					if x[i*tc.k+c] != 0 {
						t.Errorf("x[%d][%d] = %v, want 0", i, c, x[i*tc.k+c])
					}
				}
			}
		})
	}
}

// BenchmarkSolveBlock times the lockstep solve on a system of the ci
// city's shape — n ≈ 3,000 rows of ≈ 220 entries, nine right-hand
// sides — on one and on two workers.
func BenchmarkSolveBlock(b *testing.B) {
	const n, k, perRow = 3000, 9, 110
	rng := rand.New(rand.NewSource(1))
	var coords []Coord
	for i := 0; i < n; i++ {
		for e := 0; e < perRow; e++ {
			if j := rng.Intn(n); j != i {
				v := 0.7 + 0.3*rng.Float64()
				coords = append(coords, Coord{i, j, v}, Coord{j, i, v})
			}
		}
	}
	var labeled []Coord
	for i := 0; i < n*9/10; i++ {
		labeled = append(labeled, Coord{i, i, 1})
	}
	a := AddScaled(New(n, labeled), 1, Laplacian(New(n, coords)), 0.01)
	rhs := make([]float64, n*k)
	for i := 0; i < n*9/10; i++ {
		rhs[i*k+rng.Intn(k)] = 1
	}
	x := make([]float64, n*k)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			iters := 0
			for i := 0; i < b.N; i++ {
				clear(x)
				iters = 0
				for _, r := range SolveBlock(a, x, rhs, k, 1e-8, 2000, workers) {
					iters += r.Iterations
				}
			}
			b.ReportMetric(float64(iters), "iters/op")
			b.ReportMetric(float64(a.NNZ()), "nnz")
		})
	}
}
