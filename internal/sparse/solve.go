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

// blockWidth is the number of columns one sweep over a matrix row
// serves: four accumulators stay in registers next to the row's value
// and the gathered operands.
const blockWidth = 4

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
// columns only share the pass over A. The arithmetic a column sees does
// not depend on k, on its position, or on workers — columns are split
// into contiguous groups, one goroutine each (workers ≤ 0 means
// GOMAXPROCS) — so results are bit-identical under any of them.
func SolveBlock(a *Matrix, x, b []float64, k int, tol float64, maxIter, workers int) []SolveResult {
	if len(x) != a.n*k || len(b) != a.n*k {
		panic(fmt.Sprintf("sparse.SolveBlock: operands are %d and %d long, want n·k = %d·%d", len(x), len(b), a.n, k))
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
			a.solveGroup(x, b, k, lo, hi, diag, tol, maxIter, res)
		}()
	}
	a.solveGroup(x, b, k, 0, k/groups, diag, tol, maxIter, res)
	wg.Wait()
	return res
}

// CG solves A·x = b for one right-hand side: SolveBlock with k = 1.
func CG(a *Matrix, x, b []float64, tol float64, maxIter int) SolveResult {
	return SolveBlock(a, x, b, 1, tol, maxIter, 1)[0]
}

// solveGroup advances columns [lo, hi) of the n×k system through PCG in
// lockstep and writes their solutions and results back. It touches no
// other column, so groups run concurrently.
func (m *Matrix) solveGroup(x, b []float64, k, lo, hi int, diag []float64, tol float64, maxIter int, res []SolveResult) {
	n, kg := m.n, hi-lo
	// The working vectors are row-major n×nb blocks of blockWidth
	// columns; column c lives in lane c%blockWidth of block
	// c/blockWidth. Padding lanes stay zero and are never live.
	const w = blockWidth
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
	m.mulBlock(ap, xs, nb, liveBlocks)
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
		m.mulBlock(ap, p, nb, liveBlocks)
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

// mulBlock computes dst = M·src on row-major operands of nb column
// blocks per row. Each row of M is swept once per live block with
// blockWidth running sums; blocks not marked live are left untouched.
func (m *Matrix) mulBlock(dst, src [][blockWidth]float64, nb int, liveBlocks []bool) {
	for i := 0; i < m.n; i++ {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		cols := m.colIdx[lo:hi]
		vals := m.vals[lo:hi]
		vals = vals[:len(cols)]
		for blk, l := range liveBlocks {
			if !l {
				continue
			}
			var s0, s1, s2, s3 float64
			for t, j := range cols {
				v := vals[t]
				q := &src[int(j)*nb+blk]
				s0 += v * q[0]
				s1 += v * q[1]
				s2 += v * q[2]
				s3 += v * q[3]
			}
			dst[i*nb+blk] = [blockWidth]float64{s0, s1, s2, s3}
		}
	}
}
