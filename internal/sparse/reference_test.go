package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// This file keeps what the block solver replaced as test-only
// references: the triplet-based Laplacian and AddScaled assemblies, the
// single-column unpreconditioned CG, and a dense direct solve — and the
// stored matrix as an Operator, the one every other operator is held
// to.

// MulBlock makes a Matrix an Operator: each row is swept once per live
// block with BlockWidth running sums.
func (m *Matrix) MulBlock(dst, src [][BlockWidth]float64, nb int, live []bool, _ *[][BlockWidth]float64) {
	for i := 0; i < m.n; i++ {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		cols := m.colIdx[lo:hi]
		vals := m.vals[lo:hi]
		vals = vals[:len(cols)]
		for blk, l := range live {
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
			dst[i*nb+blk] = [BlockWidth]float64{s0, s1, s2, s3}
		}
	}
}

// CG solves A·x = b for one right-hand side: SolveBlock with k = 1.
func CG(a Operator, x, b []float64, tol float64, maxIter int) SolveResult {
	return SolveBlock(a, x, b, 1, tol, maxIter, 1)[0]
}

// Laplacian returns L = D - M where D is the diagonal degree matrix of
// row sums — the unnormalized graph Laplacian of Eq. 2.
func Laplacian(adj *Matrix) *Matrix {
	n := adj.Dim()
	coords := make([]Coord, 0, adj.NNZ()+n)
	deg := adj.RowSums()
	for i := 0; i < n; i++ {
		cols, vals := adj.Row(i)
		for k, c := range cols {
			coords = append(coords, Coord{Row: i, Col: int(c), Val: -vals[k]})
		}
		coords = append(coords, Coord{Row: i, Col: i, Val: deg[i]})
	}
	return New(n, coords)
}

// AddScaled returns A + alpha·B + beta·I for same-dimension matrices;
// it assembles the system matrix S + µ1·L + µ2·I of Eq. 3.
func AddScaled(a *Matrix, alpha float64, b *Matrix, beta float64) *Matrix {
	if a.Dim() != b.Dim() {
		panic(fmt.Sprintf("sparse.AddScaled: dims %d != %d", a.Dim(), b.Dim()))
	}
	n := a.Dim()
	coords := make([]Coord, 0, a.NNZ()+b.NNZ()+n)
	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		for k, c := range cols {
			coords = append(coords, Coord{Row: i, Col: int(c), Val: vals[k]})
		}
		cols, vals = b.Row(i)
		for k, c := range cols {
			coords = append(coords, Coord{Row: i, Col: int(c), Val: alpha * vals[k]})
		}
		if beta != 0 {
			coords = append(coords, Coord{Row: i, Col: i, Val: beta})
		}
	}
	return New(n, coords)
}

// plainCG is the textbook unpreconditioned conjugate gradient on one
// right-hand side, with SolveBlock's stopping rule.
func plainCG(a *Matrix, x, b []float64, tol float64, maxIter int) SolveResult {
	n := a.Dim()
	r := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)
	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	copy(p, r)
	rs := Dot(r, r)
	bn := Norm2(b)
	if bn == 0 {
		bn = 1
	}
	res := SolveResult{}
	for ; res.Iterations < maxIter && math.Sqrt(rs)/bn >= tol; res.Iterations++ {
		a.MulVec(ap, p)
		alpha := rs / Dot(p, ap)
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rsNew := Dot(r, r)
		beta := rsNew / rs
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rs = rsNew
	}
	res.Residual = math.Sqrt(rs) / bn
	res.Converged = res.Residual < tol
	return res
}

// denseSolve solves a·x = b by Gaussian elimination with partial
// pivoting on a dense copy of a.
func denseSolve(a *Matrix, b []float64) []float64 {
	n := a.Dim()
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n+1)
		for j := 0; j < n; j++ {
			m[i][j] = a.At(i, j)
		}
		m[i][n] = b[i]
	}
	for c := 0; c < n; c++ {
		piv := c
		for i := c + 1; i < n; i++ {
			if math.Abs(m[i][c]) > math.Abs(m[piv][c]) {
				piv = i
			}
		}
		m[c], m[piv] = m[piv], m[c]
		for i := c + 1; i < n; i++ {
			f := m[i][c] / m[c][c]
			for j := c; j <= n; j++ {
				m[i][j] -= f * m[c][j]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := m[i][n]
		for j := i + 1; j < n; j++ {
			s -= m[i][j] * x[j]
		}
		x[i] = s / m[i][i]
	}
	return x
}

// TestSolversAgree property-tests the block solver against the dense
// direct solve and the unpreconditioned CG on random Eq. 3-shaped
// systems (S + µ1·L + µ2·I over a random similarity graph, n ≤ 60).
func TestSolversAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(56)
		a, _ := spdSystem(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := denseSolve(a, b)
		x := make([]float64, n)
		if res := CG(a, x, b, 1e-12, 5000); !res.Converged {
			t.Logf("seed %d: PCG did not converge: %+v", seed, res)
			return false
		}
		y := make([]float64, n)
		if res := plainCG(a, y, b, 1e-12, 5000); !res.Converged {
			t.Logf("seed %d: plain CG did not converge: %+v", seed, res)
			return false
		}
		for i := range want {
			if math.Abs(x[i]-want[i]) > 1e-8 || math.Abs(y[i]-want[i]) > 1e-8 {
				t.Logf("seed %d: x[%d] = %v (PCG) %v (CG), dense %v", seed, i, x[i], y[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
