package cluster

import (
	"testing"

	"repro/internal/roadnet"
	"repro/internal/traj"
)

// altWorld builds a small network and trajectory path set shared by the
// alternative-clusterer tests.
func altWorld(tb testing.TB) (*roadnet.Graph, []roadnet.Path) {
	tb.Helper()
	g := roadnet.Generate(roadnet.Tiny(21))
	sim := traj.NewSimulator(g, traj.D2Like(21, 300))
	ts := sim.Run()
	paths := make([]roadnet.Path, 0, len(ts))
	for _, t := range ts {
		paths = append(paths, t.Truth)
	}
	return g, paths
}

// checkPartition verifies the structural contract shared by all
// clusterers: non-empty regions, disjoint membership, only visited
// vertices, sorted members.
func checkPartition(t *testing.T, regions []Region, paths []roadnet.Path) {
	t.Helper()
	visited := make(map[roadnet.VertexID]bool)
	for _, p := range paths {
		for _, v := range p {
			visited[v] = true
		}
	}
	owner := make(map[roadnet.VertexID]int)
	covered := 0
	for _, r := range regions {
		if len(r.Members) == 0 {
			t.Fatalf("region %d is empty", r.ID)
		}
		for i, v := range r.Members {
			if i > 0 && r.Members[i-1] >= v {
				t.Fatalf("region %d members not strictly sorted", r.ID)
			}
			if prev, dup := owner[v]; dup {
				t.Fatalf("vertex %d in regions %d and %d", v, prev, r.ID)
			}
			owner[v] = r.ID
			if !visited[v] {
				t.Fatalf("region %d contains unvisited vertex %d", r.ID, v)
			}
			covered++
		}
	}
	if covered != len(visited) {
		t.Fatalf("partition covers %d of %d visited vertices", covered, len(visited))
	}
}

func TestGridClusterPartition(t *testing.T) {
	g, paths := altWorld(t)
	regions := GridCluster(g, paths)
	if len(regions) == 0 {
		t.Fatal("no regions")
	}
	checkPartition(t, regions, paths)
}

// TestGridClusterTauMonotone: raising tau can only prevent merges, so
// the region count must be non-decreasing in tau.
func TestGridClusterTauMonotone(t *testing.T) {
	g, paths := altWorld(t)
	prev := -1
	for _, tau := range []int{1, 3, 10, 100} {
		n := len(gridCluster(g, paths, gridCellSizeM, tau))
		if prev >= 0 && n < prev {
			t.Fatalf("tau=%d produced %d regions, fewer than %d at lower tau", tau, n, prev)
		}
		prev = n
	}
}

// TestGridClusterCellSizeSensitivity documents the parameter-tuning
// pain the paper argues against: different cell sizes give materially
// different partitions.
func TestGridClusterCellSizeSensitivity(t *testing.T) {
	g, paths := altWorld(t)
	small := len(gridCluster(g, paths, 150, gridTau))
	large := len(gridCluster(g, paths, 3000, gridTau))
	if small == large {
		t.Skipf("degenerate map: %d regions at both scales", small)
	}
	if small < large {
		t.Fatalf("smaller cells gave fewer regions (%d < %d)", small, large)
	}
}

func TestHierarchyPartition(t *testing.T) {
	g, paths := altWorld(t)
	regions := HierarchyPartition(g, paths)
	if len(regions) == 0 {
		t.Fatal("no regions")
	}
	checkPartition(t, regions, paths)
}

// TestHierarchyPartitionLevels: more boundary levels cut more edges, so
// the region count must be non-decreasing in l.
func TestHierarchyPartitionLevels(t *testing.T) {
	g, paths := altWorld(t)
	prev := -1
	for l := 1; l <= int(roadnet.NumRoadTypes); l++ {
		n := len(hierarchyPartition(g, paths, l))
		if prev >= 0 && n < prev {
			t.Fatalf("levels=%d produced %d regions, fewer than %d at lower level", l, n, prev)
		}
		prev = n
	}
}

// TestHierarchyPartitionAllLevels: with every road type treated as
// boundary, every visited vertex is its own region.
func TestHierarchyPartitionAllLevels(t *testing.T) {
	g, paths := altWorld(t)
	regions := hierarchyPartition(g, paths, int(roadnet.NumRoadTypes))
	for _, r := range regions {
		if len(r.Members) != 1 {
			t.Fatalf("region %d has %d members with all levels as boundary", r.ID, len(r.Members))
		}
	}
}

func TestSummarize(t *testing.T) {
	g, paths := altWorld(t)
	regions := GridCluster(g, paths)
	st := Summarize(g, regions)
	if st.Regions != len(regions) {
		t.Fatalf("Regions = %d, want %d", st.Regions, len(regions))
	}
	if st.MeanSize <= 0 {
		t.Fatalf("MeanSize = %g, want > 0", st.MeanSize)
	}
	if st.Singletons < 0 || st.Singletons > st.Regions {
		t.Fatalf("Singletons = %d out of range", st.Singletons)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	g, _ := altWorld(t)
	st := Summarize(g, nil)
	if st.Regions != 0 || st.MeanSize != 0 {
		t.Fatalf("empty summary = %+v", st)
	}
}

// TestModularityComparison: the paper's modularity clustering should
// achieve at least the modularity of the parameter-dependent grid
// method under default parameters, since it optimizes that objective
// directly.
func TestModularityComparison(t *testing.T) {
	g, paths := altWorld(t)
	tg := BuildTrajectoryGraph(g, paths)
	ours := Cluster(tg)
	grid := GridCluster(g, paths)
	qOurs := Modularity(tg, ours)
	qGrid := Modularity(tg, grid)
	if qOurs < qGrid-0.05 {
		t.Fatalf("modularity clustering Q=%.4f materially below grid Q=%.4f", qOurs, qGrid)
	}
}
