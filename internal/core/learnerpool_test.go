package core

import (
	"bytes"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/ch"
	"repro/internal/pref"
	"repro/internal/roadnet"
	"repro/internal/traj"
	"repro/internal/worldgen"
)

// ingestFresh is Router.Ingest as it stood before the learner pool: a
// fresh learner on a fresh fork of the engine per call, its sample
// capped only when the build set a cap. The pooled Ingest is held to it.
func ingestFresh(r *Router, ts []*traj.Trajectory, opt IngestOptions) IngestStats {
	start := time.Now()

	paths := matchedPaths(r.road, r.idx, ts, opt.SkipMapMatching, 1)

	var st IngestStats
	st.UpdateStats = r.rg.AddPaths(paths, r.meta.Build.Region)
	st.RebuildRecommended = st.StalenessRatio() > rebuildThreshold

	learner := pref.NewLearnerOn(r.eng.Fork())
	if r.meta.Build.LearnMaxPaths > 0 {
		learner.MaxPaths = r.meta.Build.LearnMaxPaths
	}
	for _, id := range st.TouchedEdges {
		e := r.rg.EdgeForUpdate(id)
		ps := make([]roadnet.Path, 0, len(e.PathsFwd)+len(e.PathsRev))
		for _, pi := range e.PathsFwd {
			ps = append(ps, pi.Path)
		}
		for _, pi := range e.PathsRev {
			ps = append(ps, pi.Path)
		}
		if len(ps) == 0 {
			continue
		}
		res := learner.Learn(ps)
		e.SetFit(res, true)
		if res.Similarity >= minConfidence {
			e.Pref = res.Preference
			e.HasPref = true
		} else {
			e.HasPref = false
		}
		st.Relearned++
	}
	st.Learn = learner.Searches
	r.stats.TEdges = r.rg.TEdgeCount()
	r.stats.BEdges = r.rg.BEdgeCount()
	st.Elapsed = time.Since(start)
	return st
}

// sameIngest reports how a pooled ingest into got differs from the
// fresh-learner reference's into want, "" when it does not: the update
// stats and every touched edge's fit and applied preference, bit for
// bit, and the search ledger up to the lineage memo — the searches the
// pooled learner recalled are ones the fresh one ran, possibly on the
// hierarchy, and nothing else moves.
func sameIngest(got, want *Router, gst, wst IngestStats) string {
	gl, wl := gst.Learn, wst.Learn
	if wl.Memo != 0 || gl.Run+gl.Memo != wl.Run || gl.Reused != wl.Reused || gl.Bounded != wl.Bounded || gl.Hierarchy > wl.Hierarchy {
		return "search ledgers differ"
	}
	gst.Elapsed, wst.Elapsed = 0, 0
	gst.Learn, wst.Learn = pref.SearchStats{}, pref.SearchStats{}
	if !reflect.DeepEqual(gst, wst) {
		return "stats differ"
	}
	for _, id := range gst.TouchedEdges {
		g, w := got.rg.Edges[id], want.rg.Edges[id]
		gf, gok := g.Fit()
		wf, wok := w.Fit()
		if gok != wok || gf.Preference != wf.Preference || gf.PathsUsed != wf.PathsUsed ||
			math.Float64bits(gf.Similarity) != math.Float64bits(wf.Similarity) ||
			g.HasPref != w.HasPref || g.Pref != w.Pref {
			return "fits differ"
		}
	}
	return ""
}

// TestIngestPooledLearnerMatchesFresh chains 48 two-trip ingests on the
// ci city, each one also applied by the fresh-learner reference to a
// sibling clone of the same generation, and requires the same stats and
// the same fit on every touched edge, the searches the lineage memo
// answered being ones the reference ran. Half-way the chain changes
// lineage — Save, Load, EnableCH, the restart path — and the loaded
// router must have a pool (and with it a memo) of its own, shared with
// its clones.
func TestIngestPooledLearnerMatchesFresh(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("ci-scale chain; the concurrent-clones test covers the pool under -race")
	}
	w := worldgen.Build(worldgen.MustScale(worldgen.ScaleCI, 1))
	cur, err := Build(w.Road, w.Train, Options{SkipMapMatching: true, PathBackend: BackendCH})
	if err != nil {
		t.Fatal(err)
	}
	const batches = 48
	if len(w.Test) < 2*batches {
		t.Fatalf("%d held-out trips, want %d", len(w.Test), 2*batches)
	}
	opt := IngestOptions{SkipMapMatching: true}
	relearned, searches, bounded, memo := 0, 0, 0, 0
	for i := 0; i < batches; i++ {
		if i == batches/2 {
			var buf bytes.Buffer
			if err := cur.Clone().Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			dijkstraPool := loaded.learners
			loaded.EnableCH(ch.Config{})
			if loaded.learners == cur.learners || loaded.learners == dijkstraPool {
				t.Fatal("the loaded router shares a learner pool with another engine")
			}
			if loaded.Clone().learners != loaded.learners || loaded.IngestClone().learners != loaded.learners {
				t.Fatal("clones of the loaded router do not share its learner pool")
			}
			cur = loaded
		}
		batch := w.Test[2*i : 2*i+2]
		next, ref := cur.IngestClone(), cur.IngestClone()
		st := next.Ingest(batch, opt)
		want := ingestFresh(ref, batch, opt)
		if d := sameIngest(next, ref, st, want); d != "" {
			t.Fatalf("batch %d: pooled ingest and the fresh-learner reference differ: %s\npooled %+v\nfresh  %+v", i, d, st, want)
		}
		next.PrepareMetricsTouched(st.TouchedEdges)
		relearned += st.Relearned
		searches += st.Learn.Run
		bounded += st.Learn.Bounded
		memo += st.Learn.Memo
		cur = next
	}
	if relearned == 0 || memo == 0 {
		t.Fatalf("the chain relearned %d edges, %d searches from the memo", relearned, memo)
	}
	t.Logf("%d batches, %d edges relearned, %d searches run, %d from the memo, %d bounded", batches, relearned, searches, memo, bounded)
}

// TestIngestConcurrentClonesSharePool runs two IngestClones of one
// generation ingesting at once on the lineage's one learner pool, for
// several generations, and holds each to the fresh-learner reference
// applied to a third clone afterwards. Run it under -race.
func TestIngestConcurrentClonesSharePool(t *testing.T) {
	cur, fresh := chSplitWorld(t, 53)
	opt := IngestOptions{SkipMapMatching: true}
	const size = 8
	for round := 0; 2*size*(round+1) <= len(fresh) && round < 6; round++ {
		batches := [2][]*traj.Trajectory{
			fresh[2*size*round : 2*size*round+size],
			fresh[2*size*round+size : 2*size*(round+1)],
		}
		clones := [2]*Router{cur.IngestClone(), cur.IngestClone()}
		var sts [2]IngestStats
		var wg sync.WaitGroup
		for k := range clones {
			if clones[k].learners != cur.learners {
				t.Fatal("IngestClone does not share its parent's learner pool")
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				sts[k] = clones[k].Ingest(batches[k], opt)
			}()
		}
		wg.Wait()
		for k := range clones {
			ref := cur.IngestClone()
			want := ingestFresh(ref, batches[k], opt)
			if d := sameIngest(clones[k], ref, sts[k], want); d != "" {
				t.Fatalf("round %d, clone %d: concurrent pooled ingest and the fresh-learner reference differ: %s", round, k, d)
			}
		}
		clones[0].PrepareMetricsTouched(sts[0].TouchedEdges)
		cur = clones[0]
	}
}
