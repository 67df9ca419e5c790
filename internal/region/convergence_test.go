package region

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/roadnet"
	"repro/internal/worldgen"
)

// diffGraphs reports the first difference between two region graphs
// over the same partition in what trajectories put there: per region
// pair the edge's kind and both directed path sets (path, Count,
// Terminal), per region the inner paths, the transfer-center list and
// the visit counts behind it. Edge IDs record discovery order and may
// differ; the set of connected pairs may not.
func diffGraphs(a, b *Graph) string {
	if len(a.Edges) != len(b.Edges) {
		return fmt.Sprintf("%d edges vs %d", len(a.Edges), len(b.Edges))
	}
	for _, ea := range a.Edges {
		eb := b.FindEdge(int(ea.R1), int(ea.R2))
		if eb == nil {
			return fmt.Sprintf("pair (%d,%d) connected in one graph only", ea.R1, ea.R2)
		}
		if ea.Kind != eb.Kind {
			return fmt.Sprintf("pair (%d,%d): kind %v vs %v", ea.R1, ea.R2, ea.Kind, eb.Kind)
		}
		if !reflect.DeepEqual(ea.PathsFwd, eb.PathsFwd) || !reflect.DeepEqual(ea.PathsRev, eb.PathsRev) {
			return fmt.Sprintf("pair (%d,%d): path sets differ", ea.R1, ea.R2)
		}
	}
	for r := 0; r < a.NumRegions(); r++ {
		if !reflect.DeepEqual(a.inner[r], b.inner[r]) {
			return fmt.Sprintf("region %d: inner paths differ", r)
		}
		if !reflect.DeepEqual(a.tcCounts[r], b.tcCounts[r]) {
			return fmt.Sprintf("region %d: visit counts %v vs %v", r, a.tcCounts[r], b.tcCounts[r])
		}
		if ta, tb := a.transferCenters[r], b.transferCenters[r]; len(ta) != len(tb) || (len(ta) > 0 && !reflect.DeepEqual(ta, tb)) {
			return fmt.Sprintf("region %d: transfer centers %v vs %v", r, ta, tb)
		}
	}
	return ""
}

// TestBuildEqualsIncrementalAddPaths states the region graph's
// convergence where it lives: over random worlds and random batchings,
// Build over all the evidence equals Build over a prefix plus AddPaths
// of the rest, however the rest is cut — one path per batch and
// everything in one batch included — and the batches' UpdateStats add
// up to those of the rest ingested as one batch.
func TestBuildEqualsIncrementalAddPaths(t *testing.T) {
	seed := rand.Int63()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	for world := 0; world < 4; world++ {
		w := worldgen.Build(worldgen.ForVertices(150+rng.Intn(250), 1+rng.Int63n(1<<30)))
		paths := make([]roadnet.Path, len(w.Train))
		for i, tr := range w.Train {
			paths[i] = tr.Truth
		}
		regions := cluster.Cluster(cluster.BuildTrajectoryGraph(w.Road, paths))
		for _, opt := range []Options{{}, {MaxRegionSpan: 2}} {
			full := Build(w.Road, regions, paths, opt)
			if full.TEdgeCount() == 0 {
				t.Fatalf("world %d: no T-edges; the comparison has no teeth", world)
			}
			if !slices.ContainsFunc(full.tcCounts, func(cs []visitCount) bool { return len(cs) > maxTransferCenters }) {
				t.Fatalf("world %d: no region counts more than %d transfer centers; the cap is never applied", world, maxTransferCenters)
			}
			// Batch size 0 cuts at random; the others are fixed.
			for _, size := range []int{len(paths), 1, 0, 0, 0} {
				start := 0
				if size != len(paths) {
					start = rng.Intn(len(paths))
				}
				g := Build(w.Road, regions, paths[:start], opt)
				one := Build(w.Road, regions, paths[:start], opt).AddPaths(paths[start:], opt)
				var sum UpdateStats
				touched := map[int]bool{}
				for at := start; at < len(paths); {
					n := size
					if n == 0 {
						n = 1 + rng.Intn(len(paths)/3)
					}
					if at+n > len(paths) {
						n = len(paths) - at
					}
					st := g.AddPaths(paths[at:at+n], opt)
					at += n
					sum.Paths += st.Paths
					sum.NewEdges += st.NewEdges
					sum.UpgradedEdges += st.UpgradedEdges
					sum.TotalVertices += st.TotalVertices
					sum.OutOfRegionVertices += st.OutOfRegionVertices
					for _, id := range st.TouchedEdges {
						touched[id] = true
					}
				}
				where := fmt.Sprintf("world %d, opt %+v, prefix %d, batch size %d", world, opt, start, size)
				if d := diffGraphs(full, g); d != "" {
					t.Fatalf("%s: %s", where, d)
				}
				if len(touched) != len(one.TouchedEdges) {
					t.Fatalf("%s: %d edges touched over the batches, %d in one batch", where, len(touched), len(one.TouchedEdges))
				}
				for _, id := range one.TouchedEdges {
					if !touched[id] {
						t.Fatalf("%s: edge %d touched in one batch, never over the batches", where, id)
					}
				}
				one.TouchedEdges = nil
				if !reflect.DeepEqual(sum, one) {
					t.Fatalf("%s: stats sum %+v, one batch %+v", where, sum, one)
				}
			}
		}
	}
}
