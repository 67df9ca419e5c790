package ch_test

import (
	"fmt"
	"testing"

	"repro/internal/ch"
	"repro/internal/roadnet"
	"repro/internal/traj"
	"repro/internal/worldgen"
)

// TestContractionOrderMatchesReference holds the flat elimination game
// to the map-based one it replaced (ContractionOrderReference, kept in
// topo_reference_test.go): the same order, vertex for vertex, on the
// worlds the simulator's reference test runs — bench 1–2, ci 1–3,
// ForVertices(6400, 1) and the preset tiny 1–4, n1 1–2 and n2 1–2
// networks — and on the small random graphs of the other property
// tests. The 6.4k world skips under -short.
func TestContractionOrderMatchesReference(t *testing.T) {
	graphs := map[string]*roadnet.Graph{}
	for i, g := range buildTestGraphs(t) {
		graphs[fmt.Sprintf("test-graph-%d", i)] = g
	}
	specs := map[string]worldgen.Spec{
		"bench-1": worldgen.MustScale(worldgen.ScaleBench, 1),
		"bench-2": worldgen.MustScale(worldgen.ScaleBench, 2),
		"ci-1":    worldgen.MustScale(worldgen.ScaleCI, 1),
		"ci-2":    worldgen.MustScale(worldgen.ScaleCI, 2),
		"ci-3":    worldgen.MustScale(worldgen.ScaleCI, 3),
	}
	if !testing.Short() {
		specs["6.4k-1"] = worldgen.ForVertices(6400, 1)
	}
	for name, spec := range specs {
		graphs[name], _ = worldgen.BuildGraph(spec)
	}
	for _, p := range []struct {
		net   string
		seeds []int64
	}{{"tiny", []int64{1, 2, 3, 4}}, {"n1", []int64{1, 2}}, {"n2", []int64{1, 2}}} {
		for _, seed := range p.seeds {
			g, _, err := traj.PresetWorld(p.net, seed, seed, 0)
			if err != nil {
				t.Fatal(err)
			}
			graphs[fmt.Sprintf("%s-%d", p.net, seed)] = g
		}
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			got, want := ch.ContractionOrder(g), ch.ContractionOrderReference(g)
			if len(got) != len(want) {
				t.Fatalf("order has %d vertices, want %d", len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("order differs from the map-based reference at rank %d of %d: vertex %d, want %d", k, len(want), got[k], want[k])
				}
			}
		})
	}
}
