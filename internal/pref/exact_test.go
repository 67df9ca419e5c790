package pref_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/ch"
	"repro/internal/cluster"
	"repro/internal/pref"
	"repro/internal/region"
	"repro/internal/roadnet"
	"repro/internal/route"
	"repro/internal/worldgen"
)

// tEdgePathSets builds the region graph core.Build would (modularity
// clustering, ground-truth paths) and returns every T-edge's full path
// set — what core.Router.Ingest relearns from.
func tEdgePathSets(w *worldgen.World) [][]roadnet.Path {
	paths := make([]roadnet.Path, 0, len(w.Train))
	for _, t := range w.Train {
		paths = append(paths, t.Truth)
	}
	regions := cluster.Cluster(cluster.BuildTrajectoryGraph(w.Road, paths))
	rg := region.Build(w.Road, regions, paths, region.Options{})
	var sets [][]roadnet.Path
	for _, e := range rg.Edges {
		if e.Kind != region.TEdge {
			continue
		}
		var ps []roadnet.Path
		for _, pi := range e.PathsFwd {
			ps = append(ps, pi.Path)
		}
		for _, pi := range e.PathsRev {
			ps = append(ps, pi.Path)
		}
		sets = append(sets, ps)
	}
	return sets
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

func sameResult(a, b pref.Result) bool {
	return a.Preference == b.Preference && a.PathsUsed == b.PathsUsed &&
		math.Float64bits(a.Similarity) == math.Float64bits(b.Similarity)
}

// TestLearnMatchesExhaustive holds the pruned learner — all-Dijkstra,
// with master searches on a CCH fork, and on a pass fork where every
// search is a CCH query — to the exhaustive reference, bit for bit, on
// every T-edge path set of three generated cities at two scales;
// LearnPerPath on every T-edge at bench scale and every eighth at ci.
// It also checks the search ledger: what the learner ran, reused and
// bounded adds up to the reference's count, and the searches
// it counts as answered on the hierarchy are the ones that could be.
//
// Under the race detector the ci cities (90 s each there, against 10 s)
// are left to the un-instrumented run — CI has a step for it; every
// subtest is one goroutine, so -race has nothing to find in them that
// it does not find at bench scale.
func TestLearnMatchesExhaustive(t *testing.T) {
	scales := []string{worldgen.ScaleBench, worldgen.ScaleCI}
	if raceEnabled {
		scales = scales[:1]
	}
	for _, scale := range scales {
		for seed := int64(1); seed <= 3; seed++ {
			scale, seed := scale, seed
			t.Run(fmt.Sprintf("%s-%d", scale, seed), func(t *testing.T) {
				t.Parallel()
				w := worldgen.Build(worldgen.MustScale(scale, seed))
				sets := tEdgePathSets(w)
				if len(sets) < 20 {
					t.Fatalf("only %d T-edges; world too degenerate", len(sets))
				}
				che := route.BuildCHEngine(w.Road, roadnet.TT, ch.Config{})
				ref := pref.NewExhaustive(w.Road)
				learners := map[string]*pref.Learner{
					"dijkstra": pref.NewLearner(w.Road),
					"cch":      pref.NewLearnerOn(che.Fork()),
					"pass":     pref.NewLearnerOn(che.PassFork().Fork()),
				}
				stride := 1
				if scale == worldgen.ScaleCI {
					stride = 8
				}
				for i, ps := range sets {
					before := ref.Searches
					want := ref.Learn(ps)
					exhaustive := ref.Searches - before
					var wantPer []pref.Result
					if i%stride == 0 {
						wantPer = ref.LearnPerPath(ps)
					}
					for name, l := range learners {
						ledger := l.Searches.Total()
						got := l.Learn(ps)
						if !sameResult(got, want) {
							t.Fatalf("%s, T-edge %d: Learn = %+v (sim bits %x), exhaustive = %+v (sim bits %x)",
								name, i, got, math.Float64bits(got.Similarity), want, math.Float64bits(want.Similarity))
						}
						if n := l.Searches.Total() - ledger; n != exhaustive {
							t.Fatalf("%s, T-edge %d: ledger accounts for %d searches, the exhaustive procedure runs %d", name, i, n, exhaustive)
						}
						if i%stride != 0 {
							continue
						}
						gotPer := l.LearnPerPath(ps)
						if len(gotPer) != len(wantPer) {
							t.Fatalf("%s, T-edge %d: LearnPerPath returned %d results, exhaustive %d", name, i, len(gotPer), len(wantPer))
						}
						for j := range gotPer {
							if !sameResult(gotPer[j], wantPer[j]) {
								t.Fatalf("%s, T-edge %d, path %d: LearnPerPath = %+v, exhaustive = %+v", name, i, j, gotPer[j], wantPer[j])
							}
						}
					}
				}
				// Master searches ride the three scalar metrics; nothing
				// restricted was ever customized into the shared table —
				// the pass fork customizes into its own overlay.
				if n := che.Customizations(); n != roadnet.NumCostWeights {
					t.Errorf("learning customized %d CCH metrics, want the %d scalar ones", n, roadnet.NumCostWeights)
				}
				if n := che.ResidentMetrics(); n != roadnet.NumCostWeights {
					t.Errorf("the shared table holds %d metrics after learning, want the %d scalar ones", n, roadnet.NumCostWeights)
				}
				// The same searches ran everywhere. The hierarchy answered
				// none of them on Dijkstra, all of them on the pass fork,
				// and on the plain fork — where no masked metric is
				// resident — exactly the three master searches per path.
				dij, cch, pass := learners["dijkstra"].Searches, learners["cch"].Searches, learners["pass"].Searches
				if dij.Run != cch.Run || dij.Run != pass.Run {
					t.Errorf("searches run: dijkstra %d, cch %d, pass %d", dij.Run, cch.Run, pass.Run)
				}
				if dij.Hierarchy != 0 || pass.Hierarchy != pass.Run || cch.Hierarchy%roadnet.NumCostWeights != 0 || cch.Hierarchy >= cch.Run {
					t.Errorf("hierarchy-answered searches: dijkstra %d, cch %d of %d, pass %d of %d", dij.Hierarchy, cch.Hierarchy, cch.Run, pass.Hierarchy, pass.Run)
				}
				for name, l := range learners {
					s := l.Searches
					t.Logf("%s: %d T-edges, %d searches run (%d on the hierarchy), %d reused, %d bounded (%.1f%% eliminated)",
						name, len(sets), s.Run, s.Hierarchy, s.Reused, s.Bounded, 100*float64(s.Reused+s.Bounded)/float64(s.Total()))
				}
			})
		}
	}
}

// TestRestrictedSearchOnHierarchyMatchesDijkstra holds the search the
// learner sends to the hierarchy to the one it replaced: for every
// master × CandidateSlaves() metric and the endpoints of every T-edge
// path of the bench cities 1–3 and the ci city 1, the masked-metric CCH
// path (a pass fork's TryAppendRouteMask) equals
// Engine.AppendRouteMask's vertex for vertex, at the same cost to 1e-9
// relative. These are the queries whose ties the learner's exactness
// assumes away (package doc, "Feasibility rule" and "Engines").
func TestRestrictedSearchOnHierarchyMatchesDijkstra(t *testing.T) {
	cities := []struct {
		scale string
		seed  int64
	}{{worldgen.ScaleBench, 1}, {worldgen.ScaleBench, 2}, {worldgen.ScaleBench, 3}, {worldgen.ScaleCI, 1}}
	if raceEnabled {
		cities = cities[:3]
	}
	for _, c := range cities {
		c := c
		t.Run(fmt.Sprintf("%s-%d", c.scale, c.seed), func(t *testing.T) {
			t.Parallel()
			w := worldgen.Build(worldgen.MustScale(c.scale, c.seed))
			var ods [][2]roadnet.VertexID
			seen := make(map[[2]roadnet.VertexID]bool)
			for _, ps := range tEdgePathSets(w) {
				for _, p := range ps {
					if od := [2]roadnet.VertexID{p[0], p[len(p)-1]}; len(p) >= 2 && !seen[od] {
						seen[od] = true
						ods = append(ods, od)
					}
				}
			}
			pass := route.BuildCHEngine(w.Road, roadnet.TT, ch.Config{}).PassFork()
			dij := route.NewEngine(w.Road)
			var hp, dp roadnet.Path
			for m := roadnet.Weight(0); m < roadnet.NumCostWeights; m++ {
				for _, s := range pref.CandidateSlaves() {
					for _, od := range ods {
						var hc, dc float64
						var hok, dok, answered bool
						hp, hc, hok, answered = pass.TryAppendRouteMask(hp[:0], od[0], od[1], m, s.Mask())
						dp, dc, dok = dij.AppendRouteMask(dp[:0], od[0], od[1], m, s.Mask())
						if !answered || hok != dok {
							t.Fatalf("⟨%v, %v⟩ %d→%d: hierarchy answered %v reachable %v, Dijkstra reachable %v", m, s, od[0], od[1], answered, hok, dok)
						}
						if !slices.Equal(hp, dp) || (dok && math.Abs(hc-dc) > 1e-9*dc) {
							t.Fatalf("⟨%v, %v⟩ %d→%d: hierarchy %v at %v, Dijkstra %v at %v", m, s, od[0], od[1], hp, hc, dp, dc)
						}
					}
				}
			}
			t.Logf("%d ODs × %d masked metrics agree", len(ods), roadnet.NumCostWeights*len(pref.CandidateSlaves()))
		})
	}
}

// TestSearchLedgerPerLearn pins the ledger's unit: one Learn accounts
// for exactly (3 + 2·len(CandidateSlaves())) searches per sampled path — 21 with the
// default candidates — however they were disposed of.
func TestSearchLedgerPerLearn(t *testing.T) {
	w := worldgen.Build(worldgen.MustScale(worldgen.ScaleBench, 4))
	l := pref.NewLearner(w.Road)
	if per := 3 + 2*len(pref.CandidateSlaves()); per != 21 {
		t.Fatalf("default candidates give %d searches per path, want 21", per)
	}
	for i, ps := range tEdgePathSets(w) {
		before := l.Searches
		res := l.Learn(ps)
		d := l.Searches
		d.Run -= before.Run
		d.Reused -= before.Reused
		d.Bounded -= before.Bounded
		if d.Total() != 21*res.PathsUsed {
			t.Fatalf("T-edge %d: %+v adds up to %d, want 21 × %d paths", i, d, d.Total(), res.PathsUsed)
		}
		if d.Run < 3*res.PathsUsed {
			t.Fatalf("T-edge %d: %d searches run, fewer than the 3 master searches per path", i, d.Run)
		}
	}
}

// TestBoundTightensMidCombination shows the upper-bound rule firing
// part-way through a combination: a combination bounded before its
// first search adds PathsUsed to Bounded, so a Learn whose Bounded is no
// multiple of PathsUsed abandoned one after searches had tightened the
// bound. The exactness of doing so is TestLearnMatchesExhaustive's.
func TestBoundTightensMidCombination(t *testing.T) {
	w := worldgen.Build(worldgen.MustScale(worldgen.ScaleBench, 4))
	l := pref.NewLearner(w.Road)
	learns, mid := 0, 0
	for _, ps := range tEdgePathSets(w) {
		before := l.Searches.Bounded
		res := l.Learn(ps)
		if res.PathsUsed < 2 {
			continue
		}
		learns++
		if (l.Searches.Bounded-before)%res.PathsUsed != 0 {
			mid++
		}
	}
	if mid == 0 {
		t.Fatalf("none of %d multi-path Learns abandoned a combination part-way", learns)
	}
	t.Logf("%d of %d multi-path Learns abandoned a combination part-way", mid, learns)
}
