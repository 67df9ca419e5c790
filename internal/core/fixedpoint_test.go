package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/region"
	"repro/internal/roadnet"
	"repro/internal/worldgen"
)

// samePathInfos compares two stored path lists, a nil and an empty one
// being the same list.
func samePathInfos(a, b []region.PathInfo) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestBuildIsFixedPointOfRetransduce: Build and Retransduce run one
// derivation (derive), and that derivation recomputes everything from
// the region graph's path sets — so retransducing a freshly built
// router, whose path sets have not changed, must change nothing: the
// learned map, every region edge's preference and stored paths, the
// region preferences and the routes on 220 fixed ODs all stay as built,
// float for float. It is what makes "maintained ≡ rebuilt" a property
// of the code's shape rather than of two copies kept in step.
func TestBuildIsFixedPointOfRetransduce(t *testing.T) {
	for _, c := range []struct {
		scale string
		seed  int64
	}{
		{worldgen.ScaleBench, 1}, {worldgen.ScaleBench, 3},
		{worldgen.ScaleCI, 1}, {worldgen.ScaleCI, 3},
	} {
		for _, backend := range []PathBackend{BackendCH, BackendDijkstra} {
			t.Run(fmt.Sprintf("%s-%d-%v", c.scale, c.seed, backend), func(t *testing.T) {
				if c.scale == worldgen.ScaleCI && (raceEnabled || testing.Short()) {
					t.Skip("ci-scale builds take minutes under the race detector; CI runs this test un-instrumented")
				}
				w := worldgen.Build(worldgen.MustScale(c.scale, c.seed))
				opt := Options{SkipMapMatching: true, PathBackend: backend}
				built, err := Build(w.Road, w.Train, opt)
				if err != nil {
					t.Fatal(err)
				}
				again := built.IngestClone()
				st := again.Retransduce(opt)
				if st.LearnedPrefs == 0 || st.Transferred == 0 {
					t.Fatalf("Retransduce derived nothing: %+v", st)
				}

				if !reflect.DeepEqual(built.learnedPrefs(), again.learnedPrefs()) {
					t.Error("learned map moved")
				}
				if !reflect.DeepEqual(built.regionPrefs, again.regionPrefs) {
					t.Error("region preferences moved")
				}
				if len(built.rg.Edges) != len(again.rg.Edges) {
					t.Fatalf("%d region edges became %d", len(built.rg.Edges), len(again.rg.Edges))
				}
				for i, a := range built.rg.Edges {
					b := again.rg.Edges[i]
					if a.Kind != b.Kind || a.HasPref != b.HasPref || a.Pref != b.Pref {
						t.Fatalf("edge %d: kind/preference %v %v %v became %v %v %v", i, a.Kind, a.HasPref, a.Pref, b.Kind, b.HasPref, b.Pref)
					}
					if !samePathInfos(a.PathsFwd, b.PathsFwd) || !samePathInfos(a.PathsRev, b.PathsRev) {
						t.Fatalf("edge %d (kind %v): stored paths moved", i, a.Kind)
					}
				}
				n := w.Road.NumVertices()
				for i := 0; i < 220; i++ {
					s, d := roadnet.VertexID(i*37%n), roadnet.VertexID((i*101+13)%n)
					if ra, rb := built.Route(s, d), again.Route(s, d); !reflect.DeepEqual(ra, rb) {
						t.Fatalf("route %d -> %d moved:\nbuilt %+v\nagain %+v", s, d, ra, rb)
					}
				}
			})
		}
	}
}
