package traj_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/roadnet"
	"repro/internal/route"
	"repro/internal/traj"
	"repro/internal/worldgen"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestSimulatorMatchesDijkstraReference holds Run — its searches on a
// contraction hierarchy built for the run — to the same simulation with
// every search on Dijkstra: every field of every trip equal, bit for
// bit, on bench 1–2, ci 1–3, ForVertices(6400, 1) and the preset tiny
// 1–4, n1 1–2 and n2 1–2 worlds at 600 trips. The 6.4k world skips
// under the race detector and -short.
func TestSimulatorMatchesDijkstraReference(t *testing.T) {
	type world struct {
		g   *roadnet.Graph
		cfg traj.SimConfig
	}
	worlds := map[string]world{}
	specs := map[string]worldgen.Spec{
		"bench-1": worldgen.MustScale(worldgen.ScaleBench, 1),
		"bench-2": worldgen.MustScale(worldgen.ScaleBench, 2),
		"ci-1":    worldgen.MustScale(worldgen.ScaleCI, 1),
		"ci-2":    worldgen.MustScale(worldgen.ScaleCI, 2),
		"ci-3":    worldgen.MustScale(worldgen.ScaleCI, 3),
	}
	if !raceEnabled && !testing.Short() {
		specs["6.4k-1"] = worldgen.ForVertices(6400, 1)
	}
	for name, spec := range specs {
		g, _ := worldgen.BuildGraph(spec)
		worlds[name] = world{g, spec.Sim}
	}
	for _, p := range []struct {
		net   string
		seeds []int64
	}{{"tiny", []int64{1, 2, 3, 4}}, {"n1", []int64{1, 2}}, {"n2", []int64{1, 2}}} {
		for _, seed := range p.seeds {
			g, cfg, err := traj.PresetWorld(p.net, seed, seed, 600)
			if err != nil {
				t.Fatal(err)
			}
			worlds[fmt.Sprintf("%s-%d", p.net, seed)] = world{g, cfg}
		}
	}
	for name, w := range worlds {
		t.Run(name, func(t *testing.T) {
			got := traj.NewSimulator(w.g, w.cfg).Run()
			want := traj.NewSimulator(w.g, w.cfg).RunOn(route.NewEngine(w.g))
			if len(got) != len(want) {
				t.Fatalf("%d trips, want %d", len(got), len(want))
			}
			for i, a := range got {
				if err := sameTrip(a, want[i]); err != "" {
					t.Fatalf("trip %d: %s", i, err)
				}
			}
		})
	}
}

// sameTrip names the first field in which a differs from b, or returns
// "" when every field is equal (floats by their bits).
func sameTrip(a, b *traj.Trajectory) string {
	switch {
	case a.ID != b.ID || a.Driver != b.Driver:
		return fmt.Sprintf("ID/driver %d/%d, want %d/%d", a.ID, a.Driver, b.ID, b.Driver)
	case math.Float64bits(a.Depart) != math.Float64bits(b.Depart) || a.Peak != b.Peak:
		return fmt.Sprintf("depart/peak %v/%v, want %v/%v", a.Depart, a.Peak, b.Depart, b.Peak)
	case !slices.Equal(a.Truth, b.Truth):
		return fmt.Sprintf("truth %v, want %v", a.Truth, b.Truth)
	case !slices.Equal(a.Matched, b.Matched):
		return "matched path differs"
	case len(a.Records) != len(b.Records):
		return fmt.Sprintf("%d records, want %d", len(a.Records), len(b.Records))
	}
	for k, r := range a.Records {
		q := b.Records[k]
		if math.Float64bits(r.T) != math.Float64bits(q.T) ||
			math.Float64bits(r.P.X) != math.Float64bits(q.P.X) ||
			math.Float64bits(r.P.Y) != math.Float64bits(q.P.Y) {
			return fmt.Sprintf("record %d %+v, want %+v", k, r, q)
		}
	}
	return ""
}
