package core

import (
	"testing"

	"repro/internal/pref"
	"repro/internal/roadnet"
	"repro/internal/route"
	"repro/internal/traj"
	"repro/internal/worldgen"
)

// addApplied adds to keys the metric of every preference r routes on:
// the three scalar weights (a preference with no slave), each applied
// region-edge preference and each region preference.
func addApplied(keys map[pref.Preference]bool, r *Router) {
	for w := roadnet.Weight(0); w < roadnet.NumCostWeights; w++ {
		keys[pref.Preference{Master: w}] = true
	}
	for _, e := range r.rg.Edges {
		if e.HasPref {
			keys[e.Pref] = true
		}
	}
	for _, res := range r.regionPrefs {
		keys[res.Preference] = true
	}
}

// requireResident fails unless che's shared table holds exactly the
// metrics of keys.
func requireResident(t *testing.T, when string, che *route.CHEngine, keys map[pref.Preference]bool) {
	t.Helper()
	for p := range keys {
		if !che.Resident(p.Master, p.Slave.Mask()) {
			t.Fatalf("%s: the model routes on %v, whose metric is not resident", when, p)
		}
	}
	if n := che.ResidentMetrics(); n != len(keys) {
		t.Fatalf("%s: the shared table holds %d metrics, the models routed on %d", when, n, len(keys))
	}
}

// TestLearningLeavesOnlyAppliedMetrics: the learner's restricted
// searches ride the hierarchy without leaving a metric behind. After
// Build and after Retransduce — whose learning passes customize every
// masked metric they search into a pass fork's overlay — the shared
// table holds exactly the three scalar metrics plus the ⟨master, slave⟩
// pairs the models built on it apply, as it did when those searches
// ran on Dijkstra. Ingest, whose learner only uses resident metrics,
// customizes nothing at all.
func TestLearningLeavesOnlyAppliedMetrics(t *testing.T) {
	w := worldgen.Build(worldgen.MustScale(worldgen.ScaleBench, 1))
	opt := Options{SkipMapMatching: true, PathBackend: BackendCH}
	r, err := Build(w.Road, w.Train, opt)
	if err != nil {
		t.Fatal(err)
	}
	che := r.eng.(*route.CHEngine)
	keys := make(map[pref.Preference]bool)
	addApplied(keys, r)
	requireResident(t, "after Build", che, keys)

	var held []*traj.Trajectory
	for _, tr := range w.Test {
		if len(tr.Truth) >= 2 {
			held = append(held, tr)
		}
	}
	cur, onHier := r, 0
	for i := 0; i+2 <= len(held) && i < 16; i += 2 {
		next := cur.IngestClone()
		customized, resident := che.Customizations(), che.ResidentMetrics()
		st := next.Ingest(held[i:i+2], IngestOptions{SkipMapMatching: true})
		if che.Customizations() != customized || che.ResidentMetrics() != resident {
			t.Fatalf("batch %d: Ingest customized %d metrics", i/2, che.Customizations()-customized)
		}
		onHier += st.Learn.Hierarchy
		next.PrepareMetricsTouched(st.TouchedEdges)
		addApplied(keys, next)
		cur = next
	}
	if onHier == 0 {
		t.Fatal("no ingest search ran on the hierarchy")
	}
	requireResident(t, "after the ingests", che, keys)

	again := cur.IngestClone()
	if st := again.Retransduce(opt); st.LearnedPrefs == 0 {
		t.Fatalf("Retransduce learned nothing: %+v", st)
	}
	addApplied(keys, again)
	requireResident(t, "after Retransduce", che, keys)
}
