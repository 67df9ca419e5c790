package transfer

import (
	"cmp"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/region"
	"repro/internal/sparse"
)

// edgeFeatures featurizes the given region edges, in order.
func edgeFeatures(g *region.Graph, edgeIDs []int) []Features {
	feats := make([]Features, len(edgeIDs))
	for i, id := range edgeIDs {
		feats[i] = EdgeFeatures(g, g.Edges[id])
	}
	return feats
}

// window is a run [lo, hi) of positions whose rows are all similar to
// one row: rows of one F-class, split at mid, the first with Dis above
// the row's own. halfJ is ½·J between the two rows' classes.
type window struct {
	lo, mid, hi int32
	halfJ       float64
}

// simGraph is the similarity graph thresholded at an amr, held as
// windows instead of entries. Rows are laid out in (F, Dis, row) order,
// so each F-class is a run; a position indexes that layout.
type simGraph struct {
	row []int32   // position -> row
	dis []float64 // Dis by position
	inv []float64 // 1/Dis by position, 0 where Dis = 0
	// The windows of position p are wins[off[p]:end[p]]: disjoint, never
	// covering p itself.
	off, end []int
	wins     []window
	pairs    int // ordered pairs (i, j), i ≠ j, with reSim ≥ amr
}

// similarity finds, for every row and every F-class, the window of the
// class's rows reaching amr — one run, since reSim is monotone in Dis on
// each side of the row's own — by binary search on reSim's expression,
// on up to workers goroutines (≤ 0 means GOMAXPROCS); the result does
// not depend on workers.
func similarity(feats []Features, amr float64, workers int) *simGraph {
	n := len(feats)
	s := &simGraph{row: make([]int32, n), dis: make([]float64, n), inv: make([]float64, n),
		off: make([]int, n+1), end: make([]int, n)}
	for i := range s.row {
		s.row[i] = int32(i)
	}
	slices.SortFunc(s.row, func(i, j int32) int {
		return cmp.Or(slices.CompareFunc(feats[i].F, feats[j].F, comparePairs), cmp.Compare(feats[i].Dis, feats[j].Dis), cmp.Compare(i, j))
	})
	class := make([]int, n) // by position
	var start []int         // class c holds positions [start[c], start[c+1])
	for p, i := range s.row {
		if p == 0 || !slices.Equal(feats[i].F, feats[s.row[p-1]].F) {
			start = append(start, p)
		}
		class[p] = len(start) - 1
		if d := feats[i].Dis; d != 0 {
			s.dis[p], s.inv[p] = d, 1/d
		}
	}
	start = append(start, n)

	// ½·J per class pair, and the classes each class reaches at all: the
	// distance term is at most ½.
	nc := len(start) - 1
	halfJ := make([]float64, nc*nc)
	reach := make([][]int, nc)
	for a := 0; a < nc; a++ {
		for b := 0; b < nc; b++ {
			hj := 0.5 * jaccardPairs(feats[s.row[start[a]]].F, feats[s.row[start[b]]].F)
			if halfJ[a*nc+b] = hj; 0.5+hj >= amr {
				reach[a] = append(reach[a], b)
			}
		}
	}

	// A position has a slot per class it reaches, plus one: its own
	// class's window is split around it.
	for p := range s.end {
		s.off[p+1] = s.off[p] + len(reach[class[p]]) + 1
	}
	s.wins = make([]window, s.off[n])
	fill := func(p int) {
		c, di, w := class[p], s.dis[p], s.wins[s.off[p]:s.off[p]:s.off[p+1]]
		add := func(lo, mid, hi int, hj float64) {
			if lo < hi {
				w = append(w, window{int32(lo), int32(mid), int32(hi), hj})
			}
		}
		for _, cc := range reach[c] {
			hj := halfJ[c*nc+cc]
			similar := func(q int) bool { return 0.5*disRatio(di, s.dis[q])+hj >= amr }
			a, e := start[cc], start[cc+1]
			mid := a + sort.Search(e-a, func(k int) bool { return s.dis[a+k] > di })
			lo := a + sort.Search(mid-a, func(k int) bool { return similar(a + k) })
			hi := mid + sort.Search(e-mid, func(k int) bool { return !similar(mid + k) })
			if cc == c {
				// reSim(i, i) = 0.5·1 + hj reaches amr, or c would not
				// reach itself: p lies in [lo, mid).
				add(lo, p, p, hj)
				lo = p + 1
			}
			add(lo, mid, hi, hj)
		}
		s.end[p] = s.off[p] + len(w)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := w * n / workers; p < (w+1)*n/workers; p++ {
				fill(p)
			}
		}()
	}
	wg.Wait()
	for p := range s.end {
		for _, w := range s.wins[s.off[p]:s.end[p]] {
			s.pairs += int(w.hi - w.lo)
		}
	}
	return s
}

// sums sets dst[i] = Σⱼ Wᵢⱼ·src[j], Wᵢⱼ = reSim(i, j) on the similar
// pairs, over the lanes of block blk (nb blocks per row), from prefix
// sums of x, d·x and x/d kept in pre (3(n+1) entries). The package
// documentation derives it, the dᵢ = 0 rows included.
func (s *simGraph) sums(dst, src, pre [][sparse.BlockWidth]float64, nb, blk int) {
	n := len(s.row)
	s0, s1, s2 := pre[:n+1], pre[n+1:2*n+2], pre[2*n+2:3*n+3]
	s0[0], s1[0], s2[0] = [sparse.BlockWidth]float64{}, [sparse.BlockWidth]float64{}, [sparse.BlockWidth]float64{}
	for p, i := range s.row {
		x, d, v := &src[int(i)*nb+blk], s.dis[p], s.inv[p]
		for l, xl := range x {
			s0[p+1][l], s1[p+1][l], s2[p+1][l] = s0[p][l]+xl, s1[p][l]+d*xl, s2[p][l]+v*xl
		}
	}
	for p, i := range s.row {
		left, lw, rw := s1, 0.5*s.inv[p], 0.5*s.dis[p]
		if s.dis[p] == 0 {
			left, lw = s0, 0.5
		}
		var y [sparse.BlockWidth]float64
		for _, w := range s.wins[s.off[p]:s.end[p]] {
			x1, x0, l1, l0, r1, r0 := &s0[w.hi], &s0[w.lo], &left[w.mid], &left[w.lo], &s2[w.hi], &s2[w.mid]
			for l := range y {
				y[l] += w.halfJ*(x1[l]-x0[l]) + lw*(l1[l]-l0[l]) + rw*(r1[l]-r0[l])
			}
		}
		dst[int(i)*nb+blk] = y
	}
}

// system is the Eq. 3 matrix A = S + µ1·L + µ2·I as a sparse.Operator,
// never stored: (A·x)ᵢ = diagᵢ·xᵢ − µ1·Σⱼ Wᵢⱼ·xⱼ.
type system struct {
	*simGraph
	diag []float64 // (S_ii + µ1·deg_i) + µ2 by row, deg = W·1
	mu1  float64
}

// newSystem builds the operator over the given rows, the first labeled
// of which carry S's ones.
func newSystem(feats []Features, labeled int, cfg Config, workers int) *system {
	s := similarity(feats, cfg.AMR, workers)
	n := len(feats)
	deg, ones := make([][sparse.BlockWidth]float64, n), make([][sparse.BlockWidth]float64, n)
	for i := range ones {
		ones[i] = [sparse.BlockWidth]float64{1, 1, 1, 1}
	}
	s.sums(deg, ones, make([][sparse.BlockWidth]float64, 3*(n+1)), 1, 0)
	diag := make([]float64, n)
	for i := range diag {
		d := cfg.Mu1 * deg[i][0]
		if i < labeled {
			d = 1 + d
		}
		diag[i] = d + cfg.Mu2
	}
	return &system{simGraph: s, diag: diag, mu1: cfg.Mu1}
}

func (a *system) Dim() int { return len(a.diag) }

func (a *system) Diag() []float64 { return slices.Clone(a.diag) }

// NNZ counts the entries an explicit A would store: the similar pairs,
// both ways, and the diagonal, stored even where it is 0.
func (a *system) NNZ() int { return len(a.diag) + a.pairs }

func (a *system) MulBlock(dst, src [][sparse.BlockWidth]float64, nb int, live []bool, scratch *[][sparse.BlockWidth]float64) {
	if len(*scratch) < 3*(len(a.diag)+1) {
		*scratch = make([][sparse.BlockWidth]float64, 3*(len(a.diag)+1))
	}
	for blk, ok := range live {
		if !ok {
			continue
		}
		a.sums(dst, src, *scratch, nb, blk)
		for i, d := range a.diag {
			x, y := &src[i*nb+blk], &dst[i*nb+blk]
			for l := range y {
				y[l] = d*x[l] - a.mu1*y[l]
			}
		}
	}
}
