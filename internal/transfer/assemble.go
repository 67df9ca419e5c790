package transfer

import (
	"runtime"
	"sync"
	"sync/atomic"

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

// simRow is one row of the thresholded similarity graph's strict upper
// triangle: the columns j > i with ReSim(i, j) ≥ amr, ascending, and
// those similarities.
type simRow struct {
	cols []int32
	sims []float64
}

// scoreUpper scores every pair once and keeps those reaching amr. Rows
// are handed to the workers one at a time (row i costs n−i−1 pairs);
// each row is scored by one goroutine in column order, so the result
// does not depend on workers (≤ 0 means GOMAXPROCS).
func scoreUpper(feats []Features, amr float64, workers int) []simRow {
	n := len(feats)
	rows := make([]simRow, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cols []int32
			var sims []float64
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				cols, sims = cols[:0], sims[:0]
				for j := i + 1; j < n; j++ {
					if s, ok := similarAtLeast(&feats[i], &feats[j], amr); ok {
						cols = append(cols, int32(j))
						sims = append(sims, s)
					}
				}
				rows[i] = simRow{cols: append([]int32(nil), cols...), sims: append([]float64(nil), sims...)}
			}
		}()
	}
	wg.Wait()
	return rows
}

// assemble builds the Eq. 3 system matrix A = S + µ1·L + µ2·I over the
// given rows, the first labeled of which carry S's ones, straight into
// CSR: count each row (the mirrored lower part, the diagonal, the upper
// part), then fill it in that order, which is column order — no triplet
// list, no sort.
//
// Off-diagonal (i, j) is µ1·(−ReSim(i, j)). The diagonal is defined as
// (S_ii + µ1·deg_i) + µ2 with deg_i the row's similarities summed in
// column order; it is always stored, even when it is 0 (µ2 = 0 on an
// isolated unlabeled row).
func assemble(feats []Features, labeled int, cfg Config, workers int) *sparse.Matrix {
	n := len(feats)
	upper := scoreUpper(feats, cfg.AMR, workers)

	rowPtr := make([]int32, n+1)
	for i, row := range upper {
		rowPtr[i+1] += int32(1 + len(row.cols))
		for _, j := range row.cols {
			rowPtr[j+1]++
		}
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	colIdx := make([]int32, rowPtr[n])
	vals := make([]float64, rowPtr[n])

	// Lower parts first: visiting the upper rows in order appends to
	// each row j its columns i < j in ascending order. deg accumulates
	// alongside, so it too sums in column order.
	fill := make([]int32, n)
	copy(fill, rowPtr)
	deg := make([]float64, n)
	for i, row := range upper {
		for t, j := range row.cols {
			colIdx[fill[j]], vals[fill[j]] = int32(i), cfg.Mu1*-row.sims[t]
			fill[j]++
			deg[j] += row.sims[t]
		}
	}
	for i, row := range upper {
		for _, s := range row.sims {
			deg[i] += s
		}
		d := cfg.Mu1 * deg[i]
		if i < labeled {
			d = 1 + d
		}
		k := fill[i]
		colIdx[k], vals[k] = int32(i), d+cfg.Mu2
		k++
		for t, j := range row.cols {
			colIdx[k], vals[k] = j, cfg.Mu1*-row.sims[t]
			k++
		}
	}
	return sparse.FromRows(n, rowPtr, colIdx, vals)
}
