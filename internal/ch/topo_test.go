package ch_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ch"
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
// property tests. The ci cities skip under the race detector and
// -short.
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
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("BuildTopology differs from the map-based reference (arcs %d vs %d, height %d vs %d)",
					got.NumArcs(), want.NumArcs(), got.Height(), want.Height())
			}
			if again := ch.NewTopology(g, got.Order()); !reflect.DeepEqual(again, got) {
				t.Fatal("NewTopology from BuildTopology's own order differs")
			}
			n := g.NumVertices()
			rng := rand.New(rand.NewSource(int64(n)))
			identity := make([]int32, n)
			for v := range identity {
				identity[v] = int32(v)
			}
			for k, order := range [][]int32{identity, perm(rng, n), perm(rng, n)} {
				if got, want := ch.NewTopology(g, order), ch.BuildTopologyReference(g, order); !reflect.DeepEqual(got, want) {
					t.Fatalf("order %d: NewTopology differs from the game played in that order (arcs %d vs %d)", k, got.NumArcs(), want.NumArcs())
				}
			}
			t.Logf("n=%d arcs=%d height=%d", n, got.NumArcs(), got.Height())
		})
	}
}

func perm(rng *rand.Rand, n int) []int32 {
	p := make([]int32, n)
	for i, v := range rng.Perm(n) {
		p[i] = int32(v)
	}
	return p
}
