package pref

import (
	"fmt"
	"strings"

	"repro/internal/roadnet"
	"repro/internal/route"
)

// SlaveFeature is a set of preferred road types, encoded as a bitmask
// over roadnet.RoadType. The zero value means "no road-condition
// preference".
type SlaveFeature uint8

// NoSlave is the empty road-condition preference.
const NoSlave SlaveFeature = 0

// SlaveOf builds a SlaveFeature from road types.
func SlaveOf(types ...roadnet.RoadType) SlaveFeature {
	var s SlaveFeature
	for _, t := range types {
		s |= 1 << t
	}
	return s
}

// Combined road-condition features; the paper's examples use exactly
// this kind of combination ("highways", "TP1+2").
var (
	// Highways prefers motorways and trunk roads.
	Highways = SlaveOf(roadnet.Motorway, roadnet.Trunk)
	// MainRoads prefers the primary/secondary arterial network.
	MainRoads = SlaveOf(roadnet.Primary, roadnet.Secondary)
	// Collectors prefers the secondary/tertiary collector network.
	Collectors = SlaveOf(roadnet.Secondary, roadnet.Tertiary)
)

// Contains reports whether the feature includes road type t.
func (s SlaveFeature) Contains(t roadnet.RoadType) bool { return s&(1<<t) != 0 }

// Empty reports whether no road type is preferred.
func (s SlaveFeature) Empty() bool { return s == 0 }

// Predicate returns the route.SlavePredicate implementing this feature,
// or nil for the empty feature.
func (s SlaveFeature) Predicate() route.SlavePredicate {
	if s.Empty() {
		return nil
	}
	return func(t roadnet.RoadType) bool { return s.Contains(t) }
}

// Mask converts the feature to the route package's road-type bitmask
// without materializing a predicate closure: both encode bit t = road
// type t preferred, so the empty feature maps to the unrestricted mask
// exactly like the nil Predicate. Metric-table code uses this on scans
// over many edges, where route.MaskOf(s.Predicate()) would allocate a
// closure and probe every road type per edge.
func (s SlaveFeature) Mask() route.SlaveMask { return route.SlaveMask(s) }

// String implements fmt.Stringer.
func (s SlaveFeature) String() string {
	if s.Empty() {
		return "-"
	}
	var parts []string
	for t := roadnet.RoadType(0); t < roadnet.NumRoadTypes; t++ {
		if s.Contains(t) {
			parts = append(parts, t.String())
		}
	}
	return strings.Join(parts, "+")
}

// Preference is a two-dimensional routing preference ⟨master, slave⟩.
type Preference struct {
	Master roadnet.Weight
	Slave  SlaveFeature
}

// Valid reports whether p names a cost weight and a slave some pipeline
// can produce — NoSlave or one of CandidateSlaves — what a preference
// read from an artifact must satisfy. It bounds the metrics Load
// customizes at NumCostWeights × (1 + len(CandidateSlaves())).
func (p Preference) Valid() bool {
	return p.Master < roadnet.NumCostWeights && producible>>p.Slave&1 != 0
}

// producible has bit s set for every slave feature s a preference can
// carry: NoSlave and each of CandidateSlaves.
var producible = func() uint64 {
	set := uint64(1) << NoSlave
	for _, s := range CandidateSlaves() {
		set |= 1 << s
	}
	return set
}()

// String implements fmt.Stringer, e.g. "⟨TT, motorway+trunk⟩".
func (p Preference) String() string {
	return fmt.Sprintf("⟨%s, %s⟩", p.Master, p.Slave)
}

// CandidateSlaves is the canonical road-condition feature set used by
// learning and transfer: each single road type plus the three standard
// combinations. Mirrors the paper's setup of six OSM road types with
// combined features allowed.
func CandidateSlaves() []SlaveFeature {
	out := make([]SlaveFeature, 0, numCandidates)
	for t := roadnet.RoadType(0); t < roadnet.NumRoadTypes; t++ {
		out = append(out, SlaveOf(t))
	}
	out = append(out, Highways, MainRoads, Collectors)
	return out
}

// SimEq1 is the paper's primary path-similarity function (Eq. 1): the
// length of the edges shared between ground truth gt and candidate cand,
// divided by the length of gt. Returns a value in [0, 1]; a zero-length
// or empty ground truth yields 0 unless the candidate equals it
// vertex-for-vertex, in which case 1 (two identical trivial paths are
// perfectly similar).
func SimEq1(g *roadnet.Graph, gt, cand roadnet.Path) float64 {
	shared, gtLen, _ := sharedLengths(g, gt, cand)
	if gtLen == 0 {
		if samePath(gt, cand) {
			return 1
		}
		return 0
	}
	return shared / gtLen
}

// SimEq4 is the alternative similarity (Eq. 4): shared length divided by
// the length of the union of the two edge sets.
func SimEq4(g *roadnet.Graph, gt, cand roadnet.Path) float64 {
	shared, gtLen, candLen := sharedLengths(g, gt, cand)
	union := gtLen + candLen - shared
	if union == 0 {
		if samePath(gt, cand) {
			return 1
		}
		return 0
	}
	return shared / union
}

func samePath(a, b roadnet.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sharedLengths returns the total length of edges common to both paths,
// plus each path's own total edge length. Edges are compared as directed
// edge IDs.
func sharedLengths(g *roadnet.Graph, gt, cand roadnet.Path) (shared, gtLen, candLen float64) {
	gtEdges := make(map[roadnet.EdgeID]struct{}, len(gt))
	for i := 1; i < len(gt); i++ {
		e := g.FindEdge(gt[i-1], gt[i])
		if e == roadnet.NoEdge {
			continue
		}
		gtEdges[e] = struct{}{}
		gtLen += g.Edge(e).Length
	}
	for i := 1; i < len(cand); i++ {
		e := g.FindEdge(cand[i-1], cand[i])
		if e == roadnet.NoEdge {
			continue
		}
		candLen += g.Edge(e).Length
		if _, ok := gtEdges[e]; ok {
			shared += g.Edge(e).Length
			delete(gtEdges, e) // count repeated edges once
		}
	}
	return shared, gtLen, candLen
}
