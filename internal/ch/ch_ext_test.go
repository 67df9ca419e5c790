package ch_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ch"
	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/route"
)

// External test package: these tests compare the hierarchy against the
// route package's Dijkstra, and route imports ch for its CHEngine
// backend, so they cannot live in package ch without an import cycle.

// buildTestGraphs returns a mix of structured and random road networks.
func buildTestGraphs(tb testing.TB) []*roadnet.Graph {
	tb.Helper()
	return []*roadnet.Graph{
		roadnet.GenerateGrid(8, 8, 150, roadnet.Residential),
		roadnet.Generate(roadnet.Tiny(7)),
		randomGraph(rand.New(rand.NewSource(11)), 60, 150),
	}
}

// randomGraph builds a connected-ish random directed graph: a ring for
// base connectivity plus m random extra edges of varying road types.
func randomGraph(rng *rand.Rand, n, m int) *roadnet.Graph {
	b := roadnet.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddVertex(geo.Point{X: rng.Float64() * 5000, Y: rng.Float64() * 5000})
	}
	for i := 0; i < n; i++ {
		b.AddRoad(roadnet.VertexID(i), roadnet.VertexID((i+1)%n), roadnet.Tertiary)
	}
	for i := 0; i < m; i++ {
		u := roadnet.VertexID(rng.Intn(n))
		v := roadnet.VertexID(rng.Intn(n))
		if u == v {
			continue
		}
		t := roadnet.RoadType(rng.Intn(int(roadnet.NumRoadTypes)))
		b.AddEdge(u, v, t)
	}
	return b.Build()
}

// twoIslands builds a random network of two components, [0, nA) and
// [nA, n): each a ring whose links are one-way with probability ½ plus
// random one-way chords, so reachability inside a component is partial
// and the skeleton carries +Inf in many directions. A few self-loops
// are spliced in through the TSV form, which (unlike the Builder) keeps
// them — a loaded network may carry them and contraction must skip them.
func twoIslands(tb testing.TB, rng *rand.Rand) (g *roadnet.Graph, nA int) {
	tb.Helper()
	nA = 6 + rng.Intn(20)
	n := nA + 6 + rng.Intn(20)
	b := roadnet.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddVertex(geo.Point{X: rng.Float64() * 5000, Y: rng.Float64() * 5000})
	}
	island := func(lo, hi int) {
		size := hi - lo
		for i := 0; i < size; i++ {
			u, v := roadnet.VertexID(lo+i), roadnet.VertexID(lo+(i+1)%size)
			if rng.Intn(2) == 0 {
				b.AddRoad(u, v, roadnet.Tertiary)
			} else {
				b.AddEdge(u, v, roadnet.Residential)
			}
		}
		for i := 0; i < 2*size; i++ {
			u, v := roadnet.VertexID(lo+rng.Intn(size)), roadnet.VertexID(lo+rng.Intn(size))
			b.AddEdge(u, v, roadnet.RoadType(rng.Intn(int(roadnet.NumRoadTypes))))
		}
	}
	island(0, nA)
	island(nA, n)
	var tsv bytes.Buffer
	if err := roadnet.WriteTSV(&tsv, b.Build()); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		v := rng.Intn(n)
		fmt.Fprintf(&tsv, "E\t%d\t%d\t1.000\t1.000\t0.001000\t0\n", v, v)
	}
	g, err := roadnet.ReadTSV(&tsv)
	if err != nil {
		tb.Fatal(err)
	}
	return g, nA
}

// TestQuickRandomGraphEquivalence is a property test of the
// elimination-tree query where it is least like a road network: random
// forests with one-way streets and self-loops. Cost and reachability
// match Dijkstra, every path is a valid road path costing what the
// query said, no OD crosses between components, and s == d is the
// one-vertex path.
func TestQuickRandomGraphEquivalence(t *testing.T) {
	f := func(seed int64, pairSeed int64) bool {
		g, nA := twoIslands(t, rand.New(rand.NewSource(seed)))
		n := g.NumVertices()
		topo := ch.BuildTopology(g)
		m := topo.Customize(func(e roadnet.EdgeID) float64 { return g.EdgeWeight(e, roadnet.DI) })
		q := ch.NewMetricQuery(topo)
		eng := route.NewEngine(g)
		prng := rand.New(rand.NewSource(pairSeed))
		for i := 0; i < 40; i++ {
			s := roadnet.VertexID(prng.Intn(n))
			d := roadnet.VertexID(prng.Intn(n))
			if i%8 == 0 {
				d = s
			}
			_, want, okD := eng.Route(s, d, roadnet.DI)
			p, got, okC := q.Route(m, s, d)
			if c, ok := q.Cost(m, s, d); ok != okC || (ok && math.Float64bits(c) != math.Float64bits(got)) {
				t.Logf("%d->%d: Cost = %g, %v but Route = %g, %v", s, d, c, ok, got, okC)
				return false
			}
			if okD != okC {
				t.Logf("%d->%d: reachability cch=%v dijkstra=%v", s, d, okC, okD)
				return false
			}
			if cross := (int(s) < nA) != (int(d) < nA); cross && okC {
				t.Logf("%d->%d: reachable across components", s, d)
				return false
			}
			if !okC {
				continue
			}
			if s == d && (len(p) != 1 || p[0] != s || got != 0) {
				t.Logf("%d->%d: path %v cost %g, want the one-vertex path at 0", s, d, p, got)
				return false
			}
			if math.Abs(got-want) > 1e-6*(1+want) {
				t.Logf("%d->%d: cost cch=%g dijkstra=%g", s, d, got, want)
				return false
			}
			if !p.Valid(g) || p[0] != s || p[len(p)-1] != d {
				t.Logf("%d->%d: invalid path %v", s, d, p)
				return false
			}
			if pc := p.Cost(g, roadnet.DI); math.Abs(pc-got) > 1e-6*(1+got) {
				t.Logf("%d->%d: path costs %g, query said %g", s, d, pc, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
