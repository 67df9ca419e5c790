package ch_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ch"
	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/worldgen"
)

// TestSkeletonMatchesReference holds the symbolic-elimination derivation
// to the elimination game it replaced (BuildTopologyReference, the
// map-based build kept in topo_reference_test.go): BuildTopology — the
// greedy order, then NewTopology — is reflect.DeepEqual to the
// reference choosing its own order, on the bench cities 1–3 and the ci
// cities 1–3; and NewTopology from an arbitrary order (random
// permutations, and the identity) is DeepEqual to the game played in
// that order, there and on the small random graphs of the other
// property tests. The triangle table is compared field by field first:
// the reference derives it by brute force from the skeleton's arcs. The
// ci cities skip under the race detector and -short.
func TestSkeletonMatchesReference(t *testing.T) {
	type city struct {
		scale string
		seed  int64
	}
	var cities []city
	for seed := int64(1); seed <= 3; seed++ {
		cities = append(cities, city{worldgen.ScaleBench, seed})
		if !raceEnabled && !testing.Short() {
			cities = append(cities, city{worldgen.ScaleCI, seed})
		}
	}
	graphs := map[string]*roadnet.Graph{}
	for _, c := range cities {
		graphs[fmt.Sprintf("%s-%d", c.scale, c.seed)], _ = worldgen.BuildGraph(worldgen.MustScale(c.scale, c.seed))
	}
	for i, g := range buildTestGraphs(t) {
		graphs[fmt.Sprintf("test-graph-%d", i)] = g
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			got, want := ch.BuildTopology(g), ch.BuildTopologyReference(g, nil)
			sameTriangles(t, got, want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("BuildTopology differs from the map-based reference (arcs %d vs %d, height %d vs %d)",
					got.NumArcs(), want.NumArcs(), got.Height(), want.Height())
			}
			if again := ch.NewTopology(g, got.Order()); !reflect.DeepEqual(again, got) {
				t.Fatal("NewTopology from BuildTopology's own order differs")
			}
			if d, err := ch.DeriveTopology(g, got.Order()); err != nil || !reflect.DeepEqual(d, got) {
				t.Fatalf("DeriveTopology from BuildTopology's order differs or fails: %v", err)
			}
			n := g.NumVertices()
			rng := rand.New(rand.NewSource(int64(n)))
			identity := make([]int32, n)
			for v := range identity {
				identity[v] = int32(v)
			}
			for k, order := range [][]int32{identity, perm(rng, n), perm(rng, n)} {
				got, want := ch.NewTopology(g, order), ch.BuildTopologyReference(g, order)
				sameTriangles(t, got, want)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("order %d: NewTopology differs from the game played in that order (arcs %d vs %d)", k, got.NumArcs(), want.NumArcs())
				}
			}
			_, tris, _ := got.TriangleTable()
			t.Logf("n=%d arcs=%d triangles=%d height=%d", n, got.NumArcs(), len(tris), got.Height())
		})
	}
}

// TestDeriveTopologyRefusesFill: on a star, the order that contracts the
// centre first would fill the leaves into a clique, and DeriveTopology
// refuses it with ErrFill; the greedy order contracts the leaves first
// and adds no fill.
func TestDeriveTopologyRefusesFill(t *testing.T) {
	const leaves = 400
	b := roadnet.NewBuilder()
	centre := b.AddVertex(geo.Point{})
	for i := 0; i < leaves; i++ {
		b.AddRoad(centre, b.AddVertex(geo.Point{X: float64(i + 1), Y: 1}), roadnet.Residential)
	}
	g := b.Build()
	identity := make([]int32, g.NumVertices())
	for v := range identity {
		identity[v] = int32(v)
	}
	if topo, err := ch.DeriveTopology(g, identity); !errors.Is(err, ch.ErrFill) || topo != nil {
		t.Fatalf("centre first: DeriveTopology = %v, %v; want ErrFill", topo != nil, err)
	}
	topo, err := ch.DeriveTopology(g, ch.ContractionOrder(g))
	if err != nil {
		t.Fatalf("greedy order: %v", err)
	}
	if topo.NumArcs() != leaves || topo.Shortcuts() != 0 {
		t.Fatalf("greedy order: %d arcs, %d shortcuts; want %d arcs and none", topo.NumArcs(), topo.Shortcuts(), leaves)
	}
}

// sameTriangles compares the lower-triangle tables of got and the
// reference field by field, naming the first that differs.
func sameTriangles(t *testing.T, got, want *ch.Topology) {
	t.Helper()
	gs, gt, gl := got.TriangleTable()
	ws, wt, wl := want.TriangleTable()
	if !slices.Equal(gl, wl) {
		t.Fatal("lowOf differs from the reference's arc owners")
	}
	if !slices.Equal(gs, ws) {
		t.Fatalf("triStart differs from the reference's (%d vs %d triangles)", gs[len(gs)-1], ws[len(ws)-1])
	}
	if !slices.Equal(gt, wt) {
		t.Fatal("tris differs from the reference's: the same per-arc counts, other triangles or order")
	}
}

func perm(rng *rand.Rand, n int) []int32 {
	p := make([]int32, n)
	for i, v := range rng.Perm(n) {
		p[i] = int32(v)
	}
	return p
}
