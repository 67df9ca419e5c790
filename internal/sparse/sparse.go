package sparse

import (
	"math"
	"sort"
)

// Coord is one (row, col, value) triplet used to assemble a matrix.
type Coord struct {
	Row, Col int
	Val      float64
}

// Matrix is an immutable CSR sparse matrix: the stored form of a
// system, which tests hold operators to.
type Matrix struct {
	n      int
	rowPtr []int32
	colIdx []int32
	vals   []float64
}

// New assembles an n×n CSR matrix from triplets. Duplicate (row, col)
// entries are summed. Entries with zero value are dropped.
func New(n int, coords []Coord) *Matrix {
	sorted := make([]Coord, 0, len(coords))
	for _, c := range coords {
		if c.Val != 0 {
			sorted = append(sorted, c)
		}
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &Matrix{n: n, rowPtr: make([]int32, n+1)}
	for i := 0; i < len(sorted); {
		j := i
		v := 0.0
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			v += sorted[j].Val
			j++
		}
		if v != 0 {
			m.colIdx = append(m.colIdx, int32(sorted[i].Col))
			m.vals = append(m.vals, v)
			m.rowPtr[sorted[i].Row+1]++
		}
		i = j
	}
	for i := 0; i < n; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	return m
}

// Dim returns the matrix dimension n.
func (m *Matrix) Dim() int { return m.n }

// NNZ returns the number of stored nonzeros.
func (m *Matrix) NNZ() int { return len(m.vals) }

// At returns the entry at (i, j). O(log row-degree).
func (m *Matrix) At(i, j int) float64 {
	lo, hi := int(m.rowPtr[i]), int(m.rowPtr[i+1])
	k := lo + sort.Search(hi-lo, func(k int) bool { return int(m.colIdx[lo+k]) >= j })
	if k < hi && int(m.colIdx[k]) == j {
		return m.vals[k]
	}
	return 0
}

// Row returns the stored column indices and values of row i, in column
// order. The slices alias the matrix and must not be modified.
func (m *Matrix) Row(i int) ([]int32, []float64) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi:hi], m.vals[lo:hi:hi]
}

// MulVec computes dst = M·x. dst and x must have length Dim and must not
// alias.
func (m *Matrix) MulVec(dst, x []float64) {
	for i := 0; i < m.n; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.vals[k] * x[m.colIdx[k]]
		}
		dst[i] = s
	}
}

// Diag returns a copy of the diagonal.
func (m *Matrix) Diag() []float64 {
	d := make([]float64, m.n)
	for i := 0; i < m.n; i++ {
		d[i] = m.At(i, i)
	}
	return d
}

// RowSums returns the vector of row sums, used to build degree matrices.
func (m *Matrix) RowSums() []float64 {
	d := make([]float64, m.n)
	for i := 0; i < m.n; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.vals[k]
		}
		d[i] = s
	}
	return d
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }
