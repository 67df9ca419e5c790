package core

import (
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/pref"
	"repro/internal/region"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// buildWorld generates a small world and builds an L2R router over the
// training split. The heavier full-pipeline variants reuse it.
func buildWorld(t *testing.T, trips int, skipMatch bool) (*roadnet.Graph, *Router, []*traj.Trajectory, []*traj.Trajectory) {
	t.Helper()
	g := roadnet.Generate(roadnet.Tiny(99))
	cfg := traj.D2Like(99, trips)
	sim := traj.NewSimulator(g, cfg)
	all := sim.Run()
	if len(all) < trips/2 {
		t.Fatalf("simulator made only %d trips", len(all))
	}
	train, test := traj.Split(all, 0.75*cfg.HorizonSec)
	if len(train) == 0 || len(test) == 0 {
		t.Fatal("degenerate split")
	}
	r, err := Build(g, train, Options{SkipMapMatching: skipMatch})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g, r, train, test
}

func TestBuildEndToEndWithMapMatching(t *testing.T) {
	g, r, _, test := buildWorld(t, 160, false)
	st := r.Stats()
	if st.MatchedOK < st.Trajectories*6/10 {
		t.Fatalf("map matching succeeded on only %d/%d", st.MatchedOK, st.Trajectories)
	}
	if st.Regions < 3 {
		t.Fatalf("only %d regions", st.Regions)
	}
	if st.TEdges == 0 {
		t.Fatal("no T-edges")
	}
	if st.LearnedPrefs == 0 {
		t.Fatal("no learned preferences")
	}
	if !r.RegionGraph().Connected() {
		t.Fatal("region graph not connected")
	}
	// Routing must work for every test query.
	for _, tr := range test {
		res := r.Route(tr.Source(), tr.Destination())
		if len(res.Path) < 2 {
			t.Fatalf("no path for (%d,%d)", tr.Source(), tr.Destination())
		}
		if !res.Path.Valid(g) {
			t.Fatalf("invalid path: %v", res.Path)
		}
		if res.Path[0] != tr.Source() || res.Path[len(res.Path)-1] != tr.Destination() {
			t.Fatalf("endpoints wrong: %v for (%d,%d)", res.Path, tr.Source(), tr.Destination())
		}
	}
}

func TestL2RBeatsShortestOnTestSet(t *testing.T) {
	// The headline reproduction check: with region-pair latent
	// preferences in the data, L2R must beat the cost-centric baselines
	// on mean Eq. 1 similarity.
	g, r, _, test := buildWorld(t, 260, true)
	sh := baseline.NewShortest(g)
	fa := baseline.NewFastest(g)
	var l2rSum, shSum, faSum float64
	n := 0
	for _, tr := range test {
		q := baseline.Query{S: tr.Source(), D: tr.Destination(), Driver: tr.Driver}
		lp := r.Route(q.S, q.D).Path
		sp := sh.Route(q)
		fp := fa.Route(q)
		if len(lp) < 2 || len(sp) < 2 || len(fp) < 2 {
			continue
		}
		l2rSum += pref.SimEq1(g, tr.Truth, lp)
		shSum += pref.SimEq1(g, tr.Truth, sp)
		faSum += pref.SimEq1(g, tr.Truth, fp)
		n++
	}
	if n < 10 {
		t.Fatalf("too few comparisons: %d", n)
	}
	l2r, shAcc, faAcc := l2rSum/float64(n), shSum/float64(n), faSum/float64(n)
	t.Logf("accuracy: L2R=%.3f Shortest=%.3f Fastest=%.3f (n=%d)", l2r, shAcc, faAcc, n)
	if l2r <= shAcc {
		t.Errorf("L2R (%.3f) does not beat Shortest (%.3f)", l2r, shAcc)
	}
	if l2r <= faAcc {
		t.Errorf("L2R (%.3f) does not beat Fastest (%.3f)", l2r, faAcc)
	}
}

func TestCategorize(t *testing.T) {
	_, r, _, test := buildWorld(t, 120, true)
	rg := r.RegionGraph()
	sawIn := false
	for _, tr := range test {
		cat := r.Categorize(tr.Source(), tr.Destination())
		inS := rg.RegionOf(tr.Source()) >= 0
		inD := rg.RegionOf(tr.Destination()) >= 0
		want := OutRegion
		if inS && inD {
			want = InRegion
			sawIn = true
		} else if inS || inD {
			want = InOutRegion
		}
		if cat != want {
			t.Fatalf("category = %v want %v", cat, want)
		}
	}
	if !sawIn {
		t.Log("no InRegion queries in this split (acceptable on tiny maps)")
	}
	if InRegion.String() != "InRegion" || OutRegion.String() != "OutRegion" || InOutRegion.String() != "InOutRegion" {
		t.Error("category names wrong")
	}
}

func TestRouteSameVertex(t *testing.T) {
	_, r, _, _ := buildWorld(t, 100, true)
	res := r.Route(5, 5)
	if len(res.Path) != 1 || res.Path[0] != 5 {
		t.Fatalf("self route = %v", res.Path)
	}
}

func TestRouteUsesRegionGraph(t *testing.T) {
	_, r, _, test := buildWorld(t, 260, true)
	used := 0
	for _, tr := range test {
		res := r.Route(tr.Source(), tr.Destination())
		if res.UsedRegionPath {
			used++
			if len(res.RegionPath) == 0 {
				t.Fatal("UsedRegionPath with empty RegionPath")
			}
		}
	}
	if used == 0 {
		t.Error("no query ever used the region graph")
	}
}

func TestInnerRegionRouting(t *testing.T) {
	_, r, train, _ := buildWorld(t, 200, true)
	rg := r.RegionGraph()
	// Find a training trajectory with a multi-vertex inner path and
	// query inside it: the answer must reuse the trajectory path.
	for _, tr := range train {
		for ri := 0; ri < rg.NumRegions(); ri++ {
			for _, ip := range rg.InnerPaths(ri) {
				if len(ip.Path) < 3 {
					continue
				}
				s, d := ip.Path[0], ip.Path[len(ip.Path)-1]
				if s == d {
					continue
				}
				res := r.Route(s, d)
				if len(res.Path) < 2 {
					t.Fatalf("inner route failed for (%d,%d)", s, d)
				}
				return // one verified instance is enough
			}
		}
		_ = tr
		break
	}
	t.Skip("no multi-vertex inner path found")
}

func TestCloneIndependence(t *testing.T) {
	_, r, _, test := buildWorld(t, 120, true)
	c := r.Clone()
	q := test[0]
	a := r.Route(q.Source(), q.Destination())
	b := c.Route(q.Source(), q.Destination())
	if len(a.Path) != len(b.Path) {
		t.Fatal("clone answers differ")
	}
	done := make(chan struct{})
	// Concurrent use of the clone and the original must be safe.
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			c.Route(test[i%len(test)].Source(), test[i%len(test)].Destination())
		}
	}()
	for i := 0; i < 20; i++ {
		r.Route(test[i%len(test)].Source(), test[i%len(test)].Destination())
	}
	<-done
}

func TestBuildErrors(t *testing.T) {
	g := roadnet.GenerateGrid(3, 3, 100, roadnet.Primary)
	if _, err := Build(nil, nil, Options{}); err == nil {
		t.Error("nil road should fail")
	}
	if _, err := Build(g, nil, Options{}); err == nil {
		t.Error("no trajectories should fail")
	}
}

func TestLearnedPreferencesExposed(t *testing.T) {
	_, r, _, _ := buildWorld(t, 160, true)
	rg := r.RegionGraph()
	found := false
	for _, e := range rg.Edges {
		if e.Kind != region.TEdge {
			continue
		}
		if res, ok := r.LearnedPreference(int(e.ID)); ok {
			found = true
			if res.Similarity < 0 || res.Similarity > 1 {
				t.Fatalf("similarity out of range: %v", res.Similarity)
			}
			// Confidence gating: only high-similarity preferences are
			// recorded on the edge.
			if e.HasPref && res.Similarity < 0.7 {
				t.Fatal("low-confidence preference recorded on edge")
			}
			if !e.HasPref && res.Similarity >= 0.7 {
				t.Fatal("confident preference not recorded on edge")
			}
		}
	}
	if !found {
		t.Error("no learned preferences exposed")
	}
}

func TestBEdgesMaterialized(t *testing.T) {
	_, r, _, _ := buildWorld(t, 160, true)
	rg := r.RegionGraph()
	bTotal, bWithPaths := 0, 0
	for _, e := range rg.Edges {
		if e.Kind != region.BEdge {
			continue
		}
		bTotal++
		if len(e.PathsFwd) > 0 || len(e.PathsRev) > 0 {
			bWithPaths++
		}
	}
	if bTotal == 0 {
		t.Skip("no B-edges in this world")
	}
	if bWithPaths == 0 {
		t.Error("no B-edge received materialized paths")
	}
}

// TestBuildWithAlternativeClusterings verifies the end-to-end pipeline
// works with the related-work clustering methods of Section II, carried
// in through BuildWithRegions like any caller-chosen partition.
func TestBuildWithAlternativeClusterings(t *testing.T) {
	road := roadnet.Generate(roadnet.Tiny(67))
	sim := traj.NewSimulator(road, traj.D2Like(67, 300))
	ts := sim.Run()
	paths := make([]roadnet.Path, len(ts))
	for i, tr := range ts {
		paths[i] = tr.Truth
	}
	for m, regions := range map[string][]cluster.Region{
		"modularity": cluster.Cluster(cluster.BuildTrajectoryGraph(road, paths)),
		"grid":       cluster.GridCluster(road, paths),
		"hierarchy":  cluster.HierarchyPartition(road, paths),
	} {
		r, err := BuildWithRegions(road, regions, ts, Options{SkipMapMatching: true})
		if err != nil {
			t.Fatalf("method %s: %v", m, err)
		}
		if r.Stats().Regions == 0 {
			t.Fatalf("method %s: no regions", m)
		}
		if got := r.Meta().Build.ClusterMethod; got != "caller" {
			t.Fatalf("method %s: BuildInfo.ClusterMethod = %q, want \"caller\"", m, got)
		}
		res := r.Route(ts[0].Source(), ts[0].Destination())
		if len(res.Path) > 0 && !res.Path.Valid(road) {
			t.Fatalf("method %s: invalid path", m)
		}
	}
}

// TestParallelQueriesViaClones runs one router and clones of it from
// every clone constructor concurrently. The router has already answered
// queries when it is cloned, so it owns a region-search scratch and
// engine query state: a constructor that let
// a copy keep either would have two goroutines searching in one state,
// which the race detector reports and the path comparison catches.
func TestParallelQueriesViaClones(t *testing.T) {
	road := roadnet.Generate(roadnet.Tiny(93))
	sim := traj.NewSimulator(road, traj.D2Like(93, 300))
	ts := sim.Run()
	n := road.NumVertices()
	type q struct{ s, d roadnet.VertexID }
	qs := make([]q, 40)
	for i := range qs {
		qs[i] = q{roadnet.VertexID((i * 13) % n), roadnet.VertexID((i*7 + 3) % n)}
	}
	r, err := Build(road, ts, Options{SkipMapMatching: true})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, len(qs))
	for i, query := range qs {
		want[i] = pathHash(r.Route(query.s, query.d).Path)
	}
	if r.scratch == nil {
		t.Fatal("no query reached the region search; the test needs a router that owns scratch")
	}
	handles := []*Router{r, r.Clone(), r.IngestClone(), r.Clone().Clone()}
	for i, h := range handles[1:] {
		if h.scratch != nil {
			t.Fatalf("clone %d shares its parent's region-search scratch", i+1)
		}
	}
	errs := make(chan error, len(handles))
	for _, h := range handles {
		h := h
		go func() {
			for round := 0; round < 3; round++ {
				for i, query := range qs {
					if got := pathHash(h.Route(query.s, query.d).Path); got != want[i] {
						errs <- fmt.Errorf("query %d: path hash %#x, want %#x", i, got, want[i])
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for range handles {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
