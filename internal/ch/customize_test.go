package ch_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/ch"
	"repro/internal/roadnet"
	"repro/internal/route"
	"repro/internal/worldgen"
)

// costOf is route.CHEngine's cost function for (w, mask) over g, with
// out the graph's route.OutTypeMasks table.
func costOf(g *roadnet.Graph, out []route.SlaveMask, w roadnet.Weight, mask route.SlaveMask) func(roadnet.EdgeID) float64 {
	return func(e roadnet.EdgeID) float64 {
		ed := g.Edge(e)
		if out[ed.From]&mask != 0 && mask&(1<<ed.Type) == 0 {
			return math.Inf(1)
		}
		return g.EdgeWeight(e, w)
	}
}

// TestCustomizeAllMatchesPerMetric: one CustomizeAll sweep gives every
// metric the arrays the per-metric reference sweep gives it — wUp,
// wDown, viaUp and viaDown bit for bit — for the three scalar weights
// and each of them under every non-empty slave mask (a superset of the
// masked metrics any router prepares), on the ci city and a 6.4k-vertex
// one; Topology.Customize, the batch of one, matches too. The 6.4k city
// skips under the race detector and -short.
func TestCustomizeAllMatchesPerMetric(t *testing.T) {
	specs := []worldgen.Spec{worldgen.MustScale(worldgen.ScaleCI, 1)}
	if !raceEnabled && !testing.Short() {
		specs = append(specs, worldgen.ForVertices(6000, 1))
	}
	for _, spec := range specs {
		g, _ := worldgen.BuildGraph(spec)
		t.Run(fmt.Sprintf("%d-vertices", g.NumVertices()), func(t *testing.T) {
			topo := ch.BuildTopology(g)
			out := route.OutTypeMasks(g)
			var costs []func(roadnet.EdgeID) float64
			for mask := route.SlaveMask(0); mask < 1<<roadnet.NumRoadTypes; mask++ {
				for w := roadnet.Weight(0); w < roadnet.NumCostWeights; w++ {
					costs = append(costs, costOf(g, out, w, mask))
				}
			}
			all := topo.CustomizeAll(costs)
			for x, cost := range costs {
				ref := topo.CustomizeReference(cost)
				for _, m := range []*ch.Metric{all[x], topo.Customize(cost)} {
					gu, gd, gvu, gvd := m.Arrays()
					wu, wd, wvu, wvd := ref.Arrays()
					if !sameBits(gu, wu) || !sameBits(gd, wd) || !slices.Equal(gvu, wvu) || !slices.Equal(gvd, wvd) {
						t.Fatalf("metric %d (w=%v mask=%#x): arrays differ from the per-metric reference", x, roadnet.Weight(x%3), x/3)
					}
				}
			}
		})
	}
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
