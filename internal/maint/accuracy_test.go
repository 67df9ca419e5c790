package maint

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/serve"
	"repro/internal/traj"
	"repro/internal/worldgen"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestMaintAccuracyFloor is the post-maintenance accuracy floor: a
// rebuild is only worth its latency if the model it publishes still
// matches the evidence. On the ci city (seed 1) the held-out trips are
// ingested in batches of four, one maintenance cycle re-derives the
// model, and the route then served for each ingested trip's OD is
// scored against the path the driver took with the paper's Eq. 1 and
// Eq. 4. The floors are ten points under what this measures (96.1 /
// 94.8): a drop of that size is a model regression, not noise — the
// computation is deterministic.
func TestMaintAccuracyFloor(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("a ci-scale build, ~60 ingests and a rebuild take minutes under the race detector; CI runs this test un-instrumented")
	}
	const floorEq1, floorEq4 = 86.0, 84.0
	opt := core.Options{SkipMapMatching: true}
	w := worldgen.Build(worldgen.MustScale(worldgen.ScaleCI, 1))
	r, err := core.Build(w.Road, w.Train, opt)
	if err != nil {
		t.Fatal(err)
	}
	e := serve.NewEngine(r, serve.Options{})
	m := Attach(e, Config{checkEvery: time.Hour})
	defer m.Close()

	var held []*traj.Trajectory
	for _, tr := range w.Test {
		if len(tr.Truth) >= 2 {
			held = append(held, tr)
		}
	}
	for _, b := range batchCopies(held, 4) {
		e.IngestMatched(b)
	}
	if _, err := m.TriggerNow(context.Background()); err != nil {
		t.Fatal(err)
	}

	var eq1, eq4 float64
	for _, tr := range held {
		res, _ := e.Route(tr.Source(), tr.Destination())
		if len(res.Path) == 0 {
			t.Fatalf("no route for the ingested trip %d -> %d", tr.Source(), tr.Destination())
		}
		s1, s4 := eval.ScorePath(w.Road, tr.Truth, res.Path)
		eq1 += s1
		eq4 += s4
	}
	eq1, eq4 = 100*eq1/float64(len(held)), 100*eq4/float64(len(held))
	t.Logf("post-maintenance accuracy over %d ingested trips: Eq. 1 %.2f%%, Eq. 4 %.2f%%", len(held), eq1, eq4)
	if eq1 < floorEq1 || eq4 < floorEq4 {
		t.Fatalf("post-maintenance accuracy Eq. 1 %.2f%% / Eq. 4 %.2f%%, floors %.0f / %.0f", eq1, eq4, floorEq1, floorEq4)
	}
}
