package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewSumsDuplicatesDropsZeros(t *testing.T) {
	m := New(3, []Coord{
		{0, 1, 2}, {0, 1, 3}, // duplicates sum
		{1, 2, 0},             // zero dropped
		{2, 2, -1}, {2, 2, 1}, // sums to zero, dropped
	})
	if got := m.At(0, 1); got != 5 {
		t.Errorf("At(0,1) = %v", got)
	}
	if m.At(1, 2) != 0 || m.At(2, 2) != 0 {
		t.Error("zero entries should be absent")
	}
	if m.NNZ() != 1 {
		t.Errorf("nnz = %d", m.NNZ())
	}
}

func TestMulVec(t *testing.T) {
	// [[2,1],[0,3]] * [1,2] = [4,6]
	m := New(2, []Coord{{0, 0, 2}, {0, 1, 1}, {1, 1, 3}})
	dst := make([]float64, 2)
	m.MulVec(dst, []float64{1, 2})
	if dst[0] != 4 || dst[1] != 6 {
		t.Errorf("MulVec = %v", dst)
	}
}

func TestDiagAndRowSums(t *testing.T) {
	m := New(2, []Coord{{0, 0, 2}, {0, 1, 1}, {1, 1, 3}})
	d := m.Diag()
	if d[0] != 2 || d[1] != 3 {
		t.Errorf("diag = %v", d)
	}
	rs := m.RowSums()
	if rs[0] != 3 || rs[1] != 3 {
		t.Errorf("rowsums = %v", rs)
	}
}

// symAdj returns a random symmetric non-negative adjacency matrix.
func symAdj(rng *rand.Rand, n int, density float64) *Matrix {
	var coords []Coord
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				v := rng.Float64() + 0.1
				coords = append(coords, Coord{i, j, v}, Coord{j, i, v})
			}
		}
	}
	return New(n, coords)
}

func TestLaplacianRowsSumToZero(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	adj := symAdj(rng, 20, 0.3)
	l := Laplacian(adj)
	for _, rs := range l.RowSums() {
		if math.Abs(rs) > 1e-9 {
			t.Fatalf("laplacian row sum %v != 0", rs)
		}
	}
	// Laplacian quadratic form is non-negative (PSD).
	x := make([]float64, 20)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	lx := make([]float64, 20)
	l.MulVec(lx, x)
	if q := Dot(x, lx); q < -1e-9 {
		t.Errorf("x^T L x = %v < 0", q)
	}
}

func TestAddScaled(t *testing.T) {
	a := New(2, []Coord{{0, 0, 1}, {1, 1, 1}})
	b := New(2, []Coord{{0, 1, 2}, {1, 0, 2}})
	c := AddScaled(a, 0.5, b, 3)
	if c.At(0, 0) != 4 { // 1 + 3
		t.Errorf("At(0,0) = %v", c.At(0, 0))
	}
	if c.At(0, 1) != 1 { // 0.5*2
		t.Errorf("At(0,1) = %v", c.At(0, 1))
	}
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch should panic")
		}
	}()
	AddScaled(a, 1, New(3, nil), 0)
}

// spdSystem builds the Eq. 3-shaped SPD system S + µ1 L + µ2 I.
func spdSystem(rng *rand.Rand, n int) (*Matrix, []float64) {
	adj := symAdj(rng, n, 0.25)
	lap := Laplacian(adj)
	var sc []Coord
	for i := 0; i < n/2; i++ {
		sc = append(sc, Coord{i, i, 1})
	}
	s := New(n, sc)
	a := AddScaled(s, 1.0, lap, 0.05)
	b := make([]float64, n)
	for i := 0; i < n/2; i++ {
		b[i] = rng.Float64()
	}
	return a, b
}

func TestCGSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := spdSystem(rng, 40)
	x := make([]float64, 40)
	res := CG(a, x, b, 1e-10, 2000)
	if !res.Converged {
		t.Fatalf("CG did not converge: %+v", res)
	}
	assertResidual(t, a, x, b, 1e-7)
}

func TestCGZeroRHS(t *testing.T) {
	a, _ := spdSystem(rand.New(rand.NewSource(1)), 10)
	b := make([]float64, 10)
	x := make([]float64, 10)
	res := CG(a, x, b, 1e-10, 100)
	if !res.Converged {
		t.Fatalf("zero RHS should converge instantly: %+v", res)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("solution of zero system should be zero")
		}
	}
}

func assertResidual(t *testing.T, a *Matrix, x, b []float64, tol float64) {
	t.Helper()
	ax := make([]float64, len(x))
	a.MulVec(ax, x)
	var rr float64
	for i := range ax {
		d := b[i] - ax[i]
		rr += d * d
	}
	if r := math.Sqrt(rr); r > tol {
		t.Errorf("residual %v > %v", r, tol)
	}
}

// TestDotNormProperties checks algebraic identities with testing/quick.
func TestDotNormProperties(t *testing.T) {
	f := func(raw []float64) bool {
		v := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				v = append(v, math.Mod(x, 1e3))
			}
		}
		n := Norm2(v)
		return n >= 0 && math.Abs(n*n-Dot(v, v)) <= 1e-6*(1+n*n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
