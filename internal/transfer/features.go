package transfer

import (
	"cmp"
	"slices"

	"repro/internal/pref"
	"repro/internal/region"
	"repro/internal/roadnet"
)

// Features describes a region edge for similarity purposes: the distance
// between the centroids of its two regions and the functionality set F —
// the Cartesian product of the two regions' top-k road-type sets.
type Features struct {
	// Dis is the centroid distance in meters.
	Dis float64
	// F is the sorted functionality pair set.
	F []RoadTypePair
}

// RoadTypePair is one element of a region edge's functionality set. The
// pair is stored unordered (smaller type first) because region edges are
// undirected.
type RoadTypePair struct {
	A, B roadnet.RoadType
}

func pairOf(a, b roadnet.RoadType) RoadTypePair {
	if a > b {
		a, b = b, a
	}
	return RoadTypePair{a, b}
}

// EdgeFeatures computes the similarity features of region edge e.
func EdgeFeatures(g *region.Graph, e *region.Edge) Features {
	r1, r2 := int(e.R1), int(e.R2)
	f := Features{Dis: g.Centroid(r1).Dist(g.Centroid(r2))}
	seen := make(map[RoadTypePair]bool)
	for _, ta := range g.TopRoadTypes(r1) {
		for _, tb := range g.TopRoadTypes(r2) {
			p := pairOf(ta, tb)
			if !seen[p] {
				seen[p] = true
				f.F = append(f.F, p)
			}
		}
	}
	slices.SortFunc(f.F, comparePairs)
	return f
}

// ReSim is the region-edge similarity of Section V-B: the sum of a
// distance-ratio term and the Jaccard similarity of the functionality
// sets, normalized into [0, 1] (the paper's thresholds amr ∈ [0.5, 0.9]
// and Fig. 6(b) buckets presuppose a unit range, so each term carries
// weight ½).
func ReSim(a, b Features) float64 {
	return 0.5*disRatio(a.Dis, b.Dis) + 0.5*jaccardPairs(a.F, b.F)
}

// disRatio is the smaller centroid distance over the larger, in [0, 1].
func disRatio(a, b float64) float64 {
	switch {
	case a == 0 && b == 0:
		return 1
	case a == 0 || b == 0:
		return 0
	case a < b:
		return a / b
	default:
		return b / a
	}
}

func jaccardPairs(a, b []RoadTypePair) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	// Both sets are sorted; merge-count the intersection.
	i, j, inter := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case comparePairs(a[i], b[j]) < 0:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// comparePairs orders functionality pairs by A, then B.
func comparePairs(x, y RoadTypePair) int {
	return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
}

// --- Preference <-> feature-column encoding -----------------------------

// Column layout of the label matrix Y: the first NumCostWeights columns
// are the master travel-cost features (DI, TT, FC); the remaining
// columns are the slave road-condition features from
// pref.CandidateSlaves() plus a final explicit "no slave" column. The
// explicit none column keeps the slave block a proper distribution so
// argmax decoding stays meaningful after propagation.
var slaveColumns = pref.CandidateSlaves()

// NumColumns returns p, the feature dimensionality of Y.
func NumColumns() int {
	return int(roadnet.NumCostWeights) + len(slaveColumns) + 1
}

func noneColumn() int { return NumColumns() - 1 }

// Encode returns the column indices a preference activates (always two:
// one master, one slave-or-none).
func Encode(p pref.Preference) []int {
	cols := []int{int(p.Master)}
	slave := noneColumn()
	for i, s := range slaveColumns {
		if s == p.Slave {
			slave = int(roadnet.NumCostWeights) + i
			break
		}
	}
	return append(cols, slave)
}

// Decode converts one row of the propagated matrix Ŷ into a preference.
// The boolean is false (a "null" preference, in the paper's terms) when
// no master feature received more than nullTol — e.g. for B-edges
// unreachable from any T-edge in the similarity graph.
func Decode(row []float64) (pref.Preference, bool) {
	master, best := roadnet.TT, 0.0
	for w := 0; w < int(roadnet.NumCostWeights); w++ {
		if row[w] > best {
			best, master = row[w], roadnet.Weight(w)
		}
	}
	if best <= nullTol {
		return pref.Preference{}, false
	}
	slave := pref.NoSlave
	bestS := row[noneColumn()]
	for i, s := range slaveColumns {
		if v := row[int(roadnet.NumCostWeights)+i]; v > bestS {
			bestS, slave = v, s
		}
	}
	return pref.Preference{Master: master, Slave: slave}, true
}

// Jaccard computes the Jaccard similarity between the activated feature
// sets of two preferences — the metric Fig. 9 uses to score transferred
// preferences against held-out ground truth.
func Jaccard(a, b pref.Preference) float64 {
	ca, cb := Encode(a), Encode(b)
	set := make(map[int]bool, len(ca))
	for _, c := range ca {
		set[c] = true
	}
	inter := 0
	for _, c := range cb {
		if set[c] {
			inter++
		}
	}
	union := len(ca) + len(cb) - inter
	return float64(inter) / float64(union)
}
