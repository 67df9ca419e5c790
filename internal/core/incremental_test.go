package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/pref"
	"repro/internal/region"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// splitWorld builds a router from the first 60% of a simulated
// trajectory stream and returns the remaining 40% for ingestion.
func splitWorld(tb testing.TB, seed int64) (*Router, []*traj.Trajectory) {
	tb.Helper()
	road := roadnet.Generate(roadnet.Tiny(seed))
	sim := traj.NewSimulator(road, traj.D2Like(seed, 500))
	ts := sim.Run()
	cut := len(ts) * 6 / 10
	r, err := Build(road, ts[:cut], Options{SkipMapMatching: true})
	if err != nil {
		tb.Fatal(err)
	}
	return r, ts[cut:]
}

func TestIngestGrowsTEdges(t *testing.T) {
	r, fresh := splitWorld(t, 23)
	before := r.rg.TEdgeCount()
	st := r.Ingest(fresh, IngestOptions{SkipMapMatching: true})
	if st.Paths != len(fresh) {
		t.Fatalf("Paths = %d, want %d", st.Paths, len(fresh))
	}
	after := r.rg.TEdgeCount()
	if after < before {
		t.Fatalf("T-edge count fell from %d to %d", before, after)
	}
	if after != before+st.UpgradedEdges+st.NewEdges {
		t.Fatalf("T-edges %d -> %d but upgrades=%d new=%d", before, after, st.UpgradedEdges, st.NewEdges)
	}
	if st.Relearned == 0 && len(st.TouchedEdges) > 0 {
		t.Fatal("touched edges but nothing relearned")
	}
	if st.Elapsed <= 0 {
		t.Fatal("Elapsed not recorded")
	}
}

func TestIngestKeepsRouterServing(t *testing.T) {
	r, fresh := splitWorld(t, 29)
	r.Ingest(fresh, IngestOptions{SkipMapMatching: true})
	n := r.road.NumVertices()
	answered := 0
	for i := 0; i < 30; i++ {
		s := roadnet.VertexID((i * 37) % n)
		d := roadnet.VertexID((i*53 + 11) % n)
		res := r.Route(s, d)
		if len(res.Path) > 0 {
			answered++
			if !res.Path.Valid(r.road) {
				t.Fatalf("invalid path after ingest: %v", res.Path)
			}
		}
	}
	if answered == 0 {
		t.Fatal("router answered no queries after ingest")
	}
}

func TestIngestUpgradedBEdgesLoseTransferredState(t *testing.T) {
	r, fresh := splitWorld(t, 31)
	// Record the B-edges before ingest.
	bBefore := make(map[int]bool)
	for _, e := range r.rg.Edges {
		if e.Kind == region.BEdge {
			bBefore[e.ID] = true
		}
	}
	st := r.Ingest(fresh, IngestOptions{SkipMapMatching: true})
	for _, id := range st.TouchedEdges {
		e := r.rg.Edges[id]
		if e.Kind != region.TEdge {
			t.Fatalf("touched edge %d is not a T-edge", id)
		}
		if !bBefore[id] {
			continue
		}
		// Upgraded edge: all paths must come from the new trajectories
		// (real traversals), so every PathInfo has Count >= 1 and the
		// path set is non-empty in at least one direction.
		if len(e.PathsFwd)+len(e.PathsRev) == 0 {
			t.Fatalf("upgraded edge %d has no paths", id)
		}
	}
}

// TestIngestStalenessSignal: an ingest recommends a rebuild exactly when
// more than a fifth of its path vertices fall outside every region. Each
// trip is ingested alone into its own clone: the held-out trips, which
// stay mostly inside the regions, and a one-hop trip leaving each vertex
// no region holds, which does not — trips must land on both sides of the
// threshold.
func TestIngestStalenessSignal(t *testing.T) {
	r, trips := splitWorld(t, 37)
	for v := range roadnet.VertexID(r.road.NumVertices()) {
		if out := r.road.Out(v); r.rg.RegionOf(v) < 0 && len(out) > 0 {
			hop := roadnet.Path{v, r.road.Edge(out[0]).To}
			trips = append(trips, &traj.Trajectory{ID: 1<<20 + int(v), Truth: hop})
		}
	}
	above, below := 0, 0
	for i, tr := range trips {
		st := r.IngestClone().Ingest([]*traj.Trajectory{tr}, IngestOptions{SkipMapMatching: true})
		ratio := st.StalenessRatio()
		if ratio < 0 || ratio > 1 {
			t.Fatalf("trip %d: staleness ratio %g outside [0,1]", i, ratio)
		}
		if st.RebuildRecommended != (ratio > 0.2) {
			t.Fatalf("trip %d: staleness %g, RebuildRecommended %v", i, ratio, st.RebuildRecommended)
		}
		if ratio > 0.2 {
			above++
		} else {
			below++
		}
	}
	if above == 0 || below == 0 {
		t.Fatalf("%d trips above the threshold and %d below; the test needs both (pick another seed)", above, below)
	}
}

func TestIngestEmpty(t *testing.T) {
	r, _ := splitWorld(t, 43)
	st := r.Ingest(nil, IngestOptions{SkipMapMatching: true})
	if st.Paths != 0 || st.Relearned != 0 || len(st.TouchedEdges) != 0 {
		t.Fatalf("empty ingest produced %+v", st)
	}
	if st.StalenessRatio() != 0 {
		t.Fatal("empty ingest has nonzero staleness")
	}
}

// TestIngestEquivalentAccuracy checks ingestion does not degrade
// routing on previously served queries' structure: categories remain
// valid and paths stay connected.
func TestIngestMapMatchedPath(t *testing.T) {
	r, fresh := splitWorld(t, 47)
	if len(fresh) > 20 {
		fresh = fresh[:20]
	}
	st := r.Ingest(fresh, IngestOptions{})
	// Map matching may drop some, but the machinery must not panic and
	// stats must be consistent.
	if st.Paths > len(fresh) {
		t.Fatalf("Paths = %d > input %d", st.Paths, len(fresh))
	}
}

// TestOneVertexTripIsNoEvidence pins the one usable-path rule Build and
// Ingest share (matchedPaths): a trip whose path has fewer than two
// vertices is set aside by both, so the same set is the same evidence
// whichever way it arrives. Before the rule was shared, a build that
// trusted ground truth let the one-vertex trip through, and it counted
// as a transfer-center visit of its region.
func TestOneVertexTripIsNoEvidence(t *testing.T) {
	r, fresh := splitWorld(t, 23)
	var inRegion roadnet.VertexID
	for r.rg.RegionOf(inRegion) < 0 {
		inRegion++
	}
	stub := &traj.Trajectory{ID: 1 << 20, Truth: roadnet.Path{inRegion}}
	set := append([]*traj.Trajectory{stub}, fresh...)
	opt := Options{SkipMapMatching: true}

	with, err := BuildWithRegions(r.road, r.rg.Regions, set, opt)
	if err != nil {
		t.Fatal(err)
	}
	without, err := BuildWithRegions(r.road, r.rg.Regions, fresh, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := with.Stats().MatchedOK; got != len(fresh) {
		t.Fatalf("Build counted %d usable paths in a set of %d plus a one-vertex trip", got, len(fresh))
	}
	if st := r.Ingest(set, IngestOptions{SkipMapMatching: true}); st.Paths != len(fresh) {
		t.Fatalf("Ingest counted %d usable paths in a set of %d plus a one-vertex trip", st.Paths, len(fresh))
	}
	if stub.Matched == nil {
		t.Fatal("the one-vertex trip's Matched was not set")
	}
	if !bytes.Equal(regionImage(with.rg), regionImage(without.rg)) || !reflect.DeepEqual(with.learnedPrefs(), without.learnedPrefs()) {
		t.Fatal("the one-vertex trip left a mark on the built region graph")
	}
}

// TestIngestFollowsBuildOptions: Ingest pairs new trajectories under
// the region options the router was built with, so a router
// built with capped region spans, then fed a batch, holds the T-edges,
// path counts and transfer centers of one built with the same options
// over the training set and the batch together. The transfer-center cap
// binds here: 9 of the 35 regions count more than four vertices after
// Build, 11 after the batch.
func TestIngestFollowsBuildOptions(t *testing.T) {
	road := roadnet.Generate(roadnet.Tiny(23))
	ts := traj.NewSimulator(road, traj.D2Like(23, 500)).Run()
	cut := len(ts) * 6 / 10
	opt := Options{SkipMapMatching: true, Region: region.Options{MaxRegionSpan: 2}}
	r, err := Build(road, ts[:cut], opt)
	if err != nil {
		t.Fatal(err)
	}
	r.Ingest(ts[cut:], IngestOptions{SkipMapMatching: true})
	want, err := BuildWithRegions(road, r.rg.Regions, ts, opt)
	if err != nil {
		t.Fatal(err)
	}

	// tEdges maps each T-edge's region pair to its stored path count and
	// the trajectories behind them.
	tEdges := func(g *region.Graph) map[[2]int][2]int {
		out := make(map[[2]int][2]int)
		for _, e := range g.Edges {
			if e.Kind != region.TEdge {
				continue
			}
			count := 0
			for _, pi := range append(append([]region.PathInfo(nil), e.PathsFwd...), e.PathsRev...) {
				count += int(pi.Count)
			}
			out[[2]int{e.R1, e.R2}] = [2]int{len(e.PathsFwd) + len(e.PathsRev), count}
		}
		return out
	}
	if got, w := tEdges(r.rg), tEdges(want.rg); !reflect.DeepEqual(got, w) {
		t.Errorf("ingested router has %d T-edges, a build over the union %d (or their path counts differ)", len(got), len(w))
	}
	for reg := 0; reg < want.rg.NumRegions(); reg++ {
		if got, w := r.rg.TransferCenters(reg), want.rg.TransferCenters(reg); !reflect.DeepEqual(got, w) {
			t.Fatalf("region %d: transfer centers %v, a build over the union %v", reg, got, w)
		}
	}
	if got := r.Meta().Build.Region; got != opt.Region {
		t.Errorf("BuildInfo.Region = %+v, want %+v", got, opt.Region)
	}
}

// TestIngestLearnsUnderBuildOptions: Ingest re-learns touched edges on
// the sample size the router was built with (Options.LearnMaxPaths) and
// applies a fit under the pipeline's confidence gate (minConfidence) —
// every touched edge's fit is a two-path learner's, applied iff it
// reaches the gate.
func TestIngestLearnsUnderBuildOptions(t *testing.T) {
	road := roadnet.Generate(roadnet.Tiny(23))
	ts := traj.NewSimulator(road, traj.D2Like(23, 500)).Run()
	cut := len(ts) * 6 / 10
	r, err := Build(road, ts[:cut], Options{SkipMapMatching: true, LearnMaxPaths: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := r.Ingest(ts[cut:], IngestOptions{SkipMapMatching: true})
	l := pref.NewLearner(road)
	l.MaxPaths = 2
	capped, gated := 0, 0
	for _, id := range st.TouchedEdges {
		e := r.rg.Edges[id]
		var ps []roadnet.Path
		for _, pi := range append(append([]region.PathInfo(nil), e.PathsFwd...), e.PathsRev...) {
			ps = append(ps, pi.Path)
		}
		want := l.Learn(ps)
		if got, ok := e.Fit(); !ok || got != want {
			t.Fatalf("edge %d (%d paths): fit %+v, a two-path learner's %+v", id, len(ps), got, want)
		}
		if confident := want.Similarity >= minConfidence; e.HasPref != confident || (confident && e.Pref != want.Preference) {
			t.Fatalf("edge %d: similarity %v applied as %v %v, want the %v gate", id, want.Similarity, e.HasPref, e.Pref, minConfidence)
		}
		if len(ps) > 2 {
			capped++
		}
		if want.Similarity < minConfidence {
			gated++
		}
	}
	if capped == 0 {
		t.Fatal("no touched edge has more than two paths; the sample cap is not exercised")
	}
	if gated == 0 || gated == len(st.TouchedEdges) {
		t.Fatalf("%d of %d touched edges fall below the %v gate; the gate is not exercised both ways", gated, len(st.TouchedEdges), minConfidence)
	}
	t.Logf("%d touched edges, %d sampled down to two paths, %d left unapplied by the %v gate", len(st.TouchedEdges), capped, gated, minConfidence)
}

// TestRetransduceLearnsUnderBuildCap: the path-sample cap has one
// source, the build's metadata. A Retransduce given zero Options, as
// maintenance gives it, relearns a router built with LearnMaxPaths 2
// on two paths per edge, so the built router is its fixed point; the
// default cap would learn another map.
func TestRetransduceLearnsUnderBuildCap(t *testing.T) {
	road := roadnet.Generate(roadnet.Tiny(23))
	ts := traj.NewSimulator(road, traj.D2Like(23, 300)).Run()
	capped, err := Build(road, ts, Options{SkipMapMatching: true, LearnMaxPaths: 2})
	if err != nil {
		t.Fatal(err)
	}
	uncapped, err := Build(road, ts, Options{SkipMapMatching: true})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(capped.learnedPrefs(), uncapped.learnedPrefs()) {
		t.Fatal("caps 2 and the default learn the same map; the cap is not exercised")
	}
	again := capped.IngestClone()
	again.Retransduce(Options{})
	if !reflect.DeepEqual(capped.learnedPrefs(), again.learnedPrefs()) || !reflect.DeepEqual(capped.regionPrefs, again.regionPrefs) {
		t.Fatal("Retransduce(Options{}) relearned a router built with LearnMaxPaths 2 under another cap")
	}
}
