package transfer

import "repro/internal/sparse"

// The solve's fixed tolerances, which the reference solve and decode
// share.
const (
	SolveTol     = solveTol
	SolveMaxIter = solveMaxIter
	NullTol      = nullTol
)

// EdgeFeatureRows, WindowMembers and NewSystem expose the similarity
// windows and the operator Run solves to the equivalence tests in
// package transfer_test.
var EdgeFeatureRows = edgeFeatures

// WindowMembers lists, per row, the rows its similarity windows at amr
// cover, in window order.
func WindowMembers(feats []Features, amr float64, workers int) [][]int {
	s := similarity(feats, amr, workers)
	out := make([][]int, len(feats))
	for p, i := range s.row {
		for _, w := range s.wins[s.off[p]:s.end[p]] {
			for q := w.lo; q < w.hi; q++ {
				out[i] = append(out[i], int(s.row[q]))
			}
		}
	}
	return out
}

// System is the Eq. 3 operator with the entry count Result.NNZ reports.
type System interface {
	sparse.Operator
	NNZ() int
}

// NewSystem builds the operator Run solves over feats.
func NewSystem(feats []Features, labeled int, cfg Config, workers int) System {
	return newSystem(feats, labeled, cfg, workers)
}
