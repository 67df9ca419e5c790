package ch_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ch"
	"repro/internal/geo"
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

// TestCustomizeAllMatchesPerMetric: CustomizeAll, which customizes
// metrics on several goroutines (the masked ones against their
// weight's scalar metric), and Customize give every metric the
// weights the reference sweep (customize_reference_test.go, a middle
// vertex per arc and direction) gives it, and middle codes that resolve
// through the triangle table to the reference's middle vertices — wUp,
// wDown, viaUp and viaDown bit for bit — for the three scalar weights
// and each of them under every non-empty slave mask (a superset of the
// masked metrics any router prepares), on the ci city and a 6.4k-vertex
// one. The 6.4k city skips under the race detector and -short.
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
			scalars := topo.CustomizeAll(costs[:roadnet.NumCostWeights], nil)
			masters := make([]*ch.Metric, len(costs))
			for x := roadnet.NumCostWeights; x < len(costs); x++ {
				masters[x] = scalars[x%roadnet.NumCostWeights]
			}
			all := topo.CustomizeAll(costs, masters)
			for x, cost := range costs {
				ref := topo.CustomizeReference(cost)
				for _, m := range []*ch.Metric{all[x], topo.Customize(cost)} {
					gu, gd := m.Weights()
					gvu, gvd := m.Middles()
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

// TestEscapeCode drives the middle code's escape: a synthetic graph in
// which arc {b1, b2} has 300 lower triangles, one per middle vertex
// a_i (contracted i-th, so triangle i is a_i's), under metrics whose
// cheapest up-direction triangle sits at index 253 (code 254), 254
// (the first escaped index), 280 tied with 290 (the first of the tie
// must win) and 299 (the last), and whose cheapest down-direction one
// sits at index 5. Codes 0, 1–254 and 255 all occur; each metric's
// middles are the reference sweep's, and every route from or to b1 or
// b2, and 2,000 random ones, unpack to the reference query's path.
func TestEscapeCode(t *testing.T) {
	const mids = 300
	b := roadnet.NewBuilder()
	b1 := b.AddVertex(geo.Point{X: 0, Y: 0})
	b2 := b.AddVertex(geo.Point{X: 2000, Y: 0})
	order := make([]int32, 0, mids+2)
	for i := 0; i < mids; i++ {
		a := b.AddVertex(geo.Point{X: 1000, Y: float64(10 + i)})
		b.AddRoad(b1, a, roadnet.Residential)
		b.AddRoad(a, b2, roadnet.Residential)
		order = append(order, int32(a))
	}
	g := b.Build()
	topo := ch.NewTopology(g, append(order, int32(b1), int32(b2)))
	if ups := topo.UpNeighbors(b1); !slices.Equal(ups, []int32{int32(b2)}) {
		t.Fatalf("b1's up-neighbours are %v, want only b2", ups)
	}
	triStart, _, lowOf := topo.TriangleTable()
	arc := slices.Index(lowOf, int32(b1)) // b1's one arc, {b1, b2}
	if n := triStart[arc+1] - triStart[arc]; n != mids {
		t.Fatalf("arc {b1, b2} has %d lower triangles, want %d", n, mids)
	}
	mid := func(i int) roadnet.VertexID { return roadnet.VertexID(order[i]) }
	const down = 5
	seen := map[uint8]bool{}
	rng := rand.New(rand.NewSource(3))
	for _, up := range [][]int{{253}, {254}, {280, 290}, {299}} {
		cheap := map[[2]roadnet.VertexID]bool{{mid(down), b1}: true, {b2, mid(down)}: true}
		for _, i := range up {
			cheap[[2]roadnet.VertexID{b1, mid(i)}], cheap[[2]roadnet.VertexID{mid(i), b2}] = true, true
		}
		cost := func(e roadnet.EdgeID) float64 {
			if ed := g.Edge(e); cheap[[2]roadnet.VertexID{ed.From, ed.To}] {
				return 1
			}
			return 10
		}
		m, ref := topo.Customize(cost), topo.CustomizeReference(cost)
		cu, cd := m.Codes()
		if want := uint8(min(up[0]+1, 255)); cu[arc] != want || cd[arc] != down+1 {
			t.Fatalf("winner %d: codes up %d down %d, want %d and %d", up[0], cu[arc], cd[arc], want, down+1)
		}
		for k := range cu {
			seen[cu[k]], seen[cd[k]] = true, true
		}
		gvu, gvd := m.Middles()
		_, _, wvu, wvd := ref.Arrays()
		if !slices.Equal(gvu, wvu) || !slices.Equal(gvd, wvd) {
			t.Fatalf("winner %d: middles differ from the reference's", up[0])
		}
		if gvu[arc] != int32(mid(up[0])) {
			t.Fatalf("winner %d: middle of b1→b2 is %d, want %d", up[0], gvu[arc], mid(up[0]))
		}
		q, rq := ch.NewMetricQuery(topo), ch.NewReferenceQuery(topo)
		var ods [][2]roadnet.VertexID
		for v := 0; v < g.NumVertices(); v++ {
			for _, e := range []roadnet.VertexID{b1, b2} {
				ods = append(ods, [2]roadnet.VertexID{roadnet.VertexID(v), e}, [2]roadnet.VertexID{e, roadnet.VertexID(v)})
			}
		}
		for i := 0; i < 2000; i++ {
			ods = append(ods, [2]roadnet.VertexID{roadnet.VertexID(rng.Intn(g.NumVertices())), roadnet.VertexID(rng.Intn(g.NumVertices()))})
		}
		for _, od := range ods {
			p, c, ok := q.Route(m, od[0], od[1])
			wp, wc, wok := rq.Route(ref, od[0], od[1])
			if ok != wok || math.Float64bits(c) != math.Float64bits(wc) || !slices.Equal(p, wp) {
				t.Fatalf("winner %d, %d->%d: path %v cost %v, reference %v cost %v", up[0], od[0], od[1], p, c, wp, wc)
			}
		}
		if p, _, _ := q.Route(m, b1, b2); !slices.Equal(p, roadnet.Path{b1, mid(up[0]), b2}) {
			t.Fatalf("winner %d: b1→b2 unpacks to %v", up[0], p)
		}
	}
	if !seen[0] || !seen[down+1] || !seen[254] || !seen[255] {
		t.Fatalf("codes seen %v: want 0, 1–254 and 255", seen)
	}
}
