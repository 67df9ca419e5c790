package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/pref"
	"repro/internal/region"
	"repro/internal/traj"
)

// edgeState is everything about one region edge that a write through a
// clone could change under a reader: its kind, what routing applies,
// the fit behind it and the sizes of its path sets.
type edgeState struct {
	kind      region.EdgeKind
	applied   pref.Preference
	hasPref   bool
	fit       pref.Result
	fitted    bool
	fwd, rev  int
	fwdCounts int
}

// modelState is a router's per-edge state, read through the exported
// surface (LearnedPreference) as well as the edge fields, plus its
// model digest.
type modelState struct {
	edges           []edgeState
	learned, routes uint64
}

func captureModel(r *Router) modelState {
	st := modelState{edges: make([]edgeState, len(r.rg.Edges))}
	for i, e := range r.rg.Edges {
		es := edgeState{kind: e.Kind, applied: e.Pref, hasPref: e.HasPref, fwd: len(e.PathsFwd), rev: len(e.PathsRev)}
		es.fit, es.fitted = r.LearnedPreference(i)
		for _, pi := range e.PathsFwd {
			es.fwdCounts += pi.Count
		}
		st.edges[i] = es
	}
	st.learned, st.routes = modelDigest(r.Clone())
	return st
}

func (a modelState) diff(b modelState) string {
	if len(a.edges) != len(b.edges) {
		return fmt.Sprintf("%d edges became %d", len(a.edges), len(b.edges))
	}
	for i := range a.edges {
		if a.edges[i] != b.edges[i] {
			return fmt.Sprintf("edge %d: %+v became %+v", i, a.edges[i], b.edges[i])
		}
	}
	if a.learned != b.learned || a.routes != b.routes {
		return fmt.Sprintf("digest learned %#x routes %#x became %#x %#x", a.learned, a.routes, b.learned, b.routes)
	}
	return ""
}

// fitsChanged counts edges of base whose fit differs in next.
func fitsChanged(base, next modelState) int {
	n := 0
	for i, e := range base.edges {
		if e.fit != next.edges[i].fit || e.fitted != next.edges[i].fitted {
			n++
		}
	}
	return n
}

// TestFitIsolatedAcrossClones: a region edge's fit lives on the edge,
// so the privatize-on-write that guards the edge is all that keeps a
// writer's relearn or rebuild away from the generation still serving.
// On both backends, with a goroutine routing on a Clone of the parent
// throughout (run under -race): 16 chained IngestClone → Ingest
// generations and a Retransduce on a clone leave the parent — and every
// retired generation — bit-identical (every edge's LearnedPreference,
// Pref, HasPref, the model digest); sibling clones ingesting different
// batches do not see each other; and a clone that privatizes every edge
// without writing still answers like its parent.
func TestFitIsolatedAcrossClones(t *testing.T) {
	for _, c := range []struct {
		name  string
		world func(testing.TB, int64) (*Router, []*traj.Trajectory)
	}{{"ch", chSplitWorld}, {"dijkstra", splitWorld}} {
		t.Run(c.name, func(t *testing.T) {
			r, fresh := c.world(t, 53)
			opt := IngestOptions{SkipMapMatching: true}
			per := len(fresh) / 16
			if per == 0 {
				t.Fatalf("%d held-out trips cannot fill 16 batches", len(fresh))
			}
			parent := captureModel(r)

			// A reader of the parent's model, as the serving pools hold.
			qs := sampleQueries(r, 24)
			want := routeAnswers(r.Clone(), qs)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func(reader *Router) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if !samePaths(routeAnswers(reader, qs), want) {
						t.Error("reader of the parent saw its answers change")
						return
					}
				}
			}(r.Clone())
			defer func() {
				close(stop)
				wg.Wait()
			}()

			// Privatizing is not writing: every edge copied, none changed.
			idle := r.IngestClone()
			for id := range idle.rg.Edges {
				idle.rg.EdgeForUpdate(id)
			}
			if d := parent.diff(captureModel(idle)); d != "" {
				t.Fatalf("clone with every edge privatized differs from its parent: %s", d)
			}

			// Chained generations, as serving makes them.
			gens, states := []*Router{r}, []modelState{parent}
			cur := r
			for i := 0; i < 16; i++ {
				next := cur.IngestClone()
				ist := next.Ingest(fresh[i*per:(i+1)*per], opt)
				next.PrepareMetricsTouched(ist.TouchedEdges)
				gens, states = append(gens, next), append(states, captureModel(next))
				cur = next
			}
			head := states[len(states)-1]
			head.edges = head.edges[:len(parent.edges)]
			if n := fitsChanged(parent, head); n == 0 {
				t.Fatal("16 batches refitted no edge the parent has; the test proves nothing")
			}

			// A maintenance rebuild on a clone of the head, and one on a
			// clone of the parent.
			for _, base := range []*Router{cur, r} {
				before := captureModel(base)
				m := base.IngestClone()
				if st := m.Retransduce(Options{SkipMapMatching: true}); st.LearnedPrefs == 0 {
					t.Fatalf("Retransduce derived nothing: %+v", st)
				}
				if base == cur && fitsChanged(before, captureModel(m)) == 0 {
					t.Fatal("Retransduce over ingested evidence changed no fit; the test proves nothing")
				}
				if d := before.diff(captureModel(base)); d != "" {
					t.Fatalf("Retransduce on a clone reached its parent: %s", d)
				}
			}
			for i, g := range gens {
				if d := states[i].diff(captureModel(g)); d != "" {
					t.Fatalf("generation %d changed after later generations advanced: %s", i, d)
				}
			}

			// Siblings of one parent.
			a, b, alone := r.IngestClone(), r.IngestClone(), r.IngestClone()
			a.Ingest(fresh[:per], opt)
			if d := parent.diff(captureModel(b)); d != "" {
				t.Fatalf("untouched sibling saw the other's ingest: %s", d)
			}
			afterA := captureModel(a)
			b.Ingest(fresh[per:2*per], opt)
			if d := afterA.diff(captureModel(a)); d != "" {
				t.Fatalf("sibling saw the other's ingest: %s", d)
			}
			alone.Ingest(fresh[per:2*per], opt)
			if d := captureModel(alone).diff(captureModel(b)); d != "" {
				t.Fatalf("a sibling's ingest differs from the same ingest with no sibling: %s", d)
			}
			if d := parent.diff(captureModel(r)); d != "" {
				t.Fatalf("parent changed under its clones: %s", d)
			}
		})
	}
}
