package sparse

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// SolveResult reports how one column's iterative solve went.
type SolveResult struct {
	Iterations int
	Residual   float64
	Converged  bool
}

// BlockWidth is the number of columns one sweep of an Operator serves:
// the solver's working vectors are row-major blocks of BlockWidth
// lanes, one column per lane.
const BlockWidth = 4

// Operator is the system SolveBlock solves: a symmetric positive
// (semi)definite n×n matrix known by its action, so it need not be
// stored.
type Operator interface {
	// Dim returns n.
	Dim() int
	// Diag returns a copy of the diagonal.
	Diag() []float64
	// MulBlock sets dst = A·src on row-major operands of nb blocks per
	// row, for each block marked in live; other blocks of dst are left
	// untouched. A lane's result must not depend on the other lanes, on
	// nb or on which block it sits in. scratch belongs to the caller,
	// one per goroutine: MulBlock may resize it and keeps nothing in it
	// between calls, so calls with distinct scratch run concurrently.
	MulBlock(dst, src [][BlockWidth]float64, nb int, live []bool, scratch *[][BlockWidth]float64)
}

// SolveBlock solves A·X = B for k right-hand sides at once with
// Jacobi-preconditioned conjugate gradient. x and b are row-major n×k;
// x holds the initial guess and is overwritten with the solution. A
// must be symmetric positive definite; a zero diagonal entry (an
// all-zero row of a semidefinite system) is preconditioned as 1, which
// leaves that row of X where it started.
//
// Every column runs the textbook recurrences with its own alpha, beta
// and residual, stops by itself once ‖r‖/‖b‖ < tol (‖b‖ = 0 counts as
// 1) or after maxIter iterations, and is frozen from then on; the
// columns only share the applications of A. The arithmetic a column
// sees does not depend on k, on its position, or on workers — columns
// are split into contiguous groups, one goroutine each (workers ≤ 0
// means GOMAXPROCS) — so results are bit-identical under any of them.
func SolveBlock(a Operator, x, b []float64, k int, tol float64, maxIter, workers int) []SolveResult {
	n := a.Dim()
	if len(x) != n*k || len(b) != n*k {
		panic(fmt.Sprintf("sparse.SolveBlock: operands are %d and %d long, want n·k = %d·%d", len(x), len(b), n, k))
	}
	res := make([]SolveResult, k)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	groups := min(workers, k)
	if groups == 0 {
		return res
	}
	diag := a.Diag()
	for i, d := range diag {
		if d == 0 {
			diag[i] = 1
		}
	}
	var wg sync.WaitGroup
	for g := 1; g < groups; g++ {
		lo, hi := g*k/groups, (g+1)*k/groups
		wg.Add(1)
		go func() {
			defer wg.Done()
			solveGroup(a, x, b, k, lo, hi, diag, tol, maxIter, res)
		}()
	}
	solveGroup(a, x, b, k, 0, k/groups, diag, tol, maxIter, res)
	wg.Wait()
	return res
}

// solveGroup advances columns [lo, hi) of the n×k system through PCG in
// lockstep and writes their solutions and results back. It touches no
// other column, so groups run concurrently.
func solveGroup(a Operator, x, b []float64, k, lo, hi int, diag []float64, tol float64, maxIter int, res []SolveResult) {
	n, kg := a.Dim(), hi-lo
	// The working vectors are row-major n×nb blocks of BlockWidth
	// columns; column c lives in lane c%BlockWidth of block
	// c/BlockWidth. Padding lanes stay zero and are never live.
	const w = BlockWidth
	nb := (kg + w - 1) / w
	buf := make([][w]float64, 4*n*nb)
	xs, r, p, ap := buf[:n*nb], buf[n*nb:2*n*nb], buf[2*n*nb:3*n*nb], buf[3*n*nb:]
	for i := 0; i < n; i++ {
		for c := 0; c < kg; c++ {
			xs[i*nb+c/w][c%w] = x[i*k+lo+c]
		}
	}
	cols := make([]float64, 5*kg)
	rz, rr, bn, alpha, beta := cols[:kg], cols[kg:2*kg], cols[2*kg:3*kg], cols[3*kg:4*kg], cols[4*kg:]

	// live lists the columns still iterating, liveBlocks the column
	// blocks holding at least one of them.
	live := make([]int, kg)
	for c := range live {
		live[c] = c
	}
	liveBlocks := make([]bool, nb)
	for blk := range liveBlocks {
		liveBlocks[blk] = true
	}

	// r = b − A·x, z = r/diag, p = z.
	var scratch [][w]float64
	a.MulBlock(ap, xs, nb, liveBlocks, &scratch)
	for i := 0; i < n; i++ {
		for c := 0; c < kg; c++ {
			bi := b[i*k+lo+c]
			ri := bi - ap[i*nb+c/w][c%w]
			z := ri / diag[i]
			r[i*nb+c/w][c%w], p[i*nb+c/w][c%w] = ri, z
			rz[c] += ri * z
			rr[c] += ri * ri
			bn[c] += bi * bi
		}
	}
	for c := 0; c < kg; c++ {
		if bn[c] = math.Sqrt(bn[c]); bn[c] == 0 {
			bn[c] = 1
		}
	}

	// retire freezes the live columns stop selects, as of iteration iter.
	retire := func(iter int, stop func(c int, residual float64) bool) {
		kept := live[:0]
		for _, c := range live {
			if residual := math.Sqrt(rr[c]) / bn[c]; stop(c, residual) {
				res[lo+c] = SolveResult{Iterations: iter, Residual: residual, Converged: residual < tol}
			} else {
				kept = append(kept, c)
			}
		}
		live = kept
	}
	for iter := 0; ; iter++ {
		retire(iter, func(_ int, residual float64) bool { return residual < tol || iter >= maxIter })
		if len(live) == 0 {
			break
		}
		for blk := range liveBlocks {
			liveBlocks[blk] = false
		}
		for _, c := range live {
			liveBlocks[c/w] = true
		}

		// alpha = r·z / p·Ap. The denominator vanishes only with the
		// search direction, once r is exactly 0 and tol still unmet.
		a.MulBlock(ap, p, nb, liveBlocks, &scratch)
		for _, c := range live {
			alpha[c] = 0
		}
		for i := 0; i < n; i++ {
			for _, c := range live {
				alpha[c] += p[i*nb+c/w][c%w] * ap[i*nb+c/w][c%w]
			}
		}
		retire(iter, func(c int, _ float64) bool { return alpha[c] == 0 })
		for _, c := range live {
			alpha[c] = rz[c] / alpha[c]
			beta[c], rr[c] = 0, 0 // accumulate the new r·z and r·r
		}
		// x += alpha·p, r −= alpha·Ap, z = r/diag (kept in ap).
		for i := 0; i < n; i++ {
			for _, c := range live {
				j, l := i*nb+c/w, c%w
				xs[j][l] += alpha[c] * p[j][l]
				ri := r[j][l] - alpha[c]*ap[j][l]
				z := ri / diag[i]
				r[j][l], ap[j][l] = ri, z
				beta[c] += ri * z
				rr[c] += ri * ri
			}
		}
		// beta = r·z (new) / r·z (old), p = z + beta·p.
		for _, c := range live {
			rz[c], beta[c] = beta[c], beta[c]/rz[c]
		}
		for i := 0; i < n; i++ {
			for _, c := range live {
				j, l := i*nb+c/w, c%w
				p[j][l] = ap[j][l] + beta[c]*p[j][l]
			}
		}
	}
	for i := 0; i < n; i++ {
		for c := 0; c < kg; c++ {
			x[i*k+lo+c] = xs[i*nb+c/w][c%w]
		}
	}
}
