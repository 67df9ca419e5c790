package core

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/region"
	"repro/internal/roadnet"
	"repro/internal/worldgen"
)

// samePathInfos compares two stored path lists as their readers see
// them — each path, count and terminal count; a nil and an empty one
// are the same list. Which trip of the graph's table a path is a window
// of is not compared: a rebuild stores its materialized paths as trips
// of a new batch.
func samePathInfos(a, b []region.PathInfo) bool {
	return slices.EqualFunc(a, b, func(x, y region.PathInfo) bool {
		return slices.Equal(x.Path, y.Path) && x.Count == y.Count && x.Terminal == y.Terminal
	})
}

// TestBuildIsFixedPointOfRetransduce: Build and Retransduce run one
// derivation (derive), and that derivation recomputes everything from
// the region graph's path sets — so retransducing a freshly built
// router, whose path sets have not changed, must change nothing: the
// learned map, every region edge's preference and stored paths, the
// region preferences, the region graph's image and the routes on 220
// fixed ODs all stay as built, float for float. It is what makes "maintained ≡ rebuilt" a property
// of the code's shape rather than of two copies kept in step.
func TestBuildIsFixedPointOfRetransduce(t *testing.T) {
	for _, c := range []struct {
		scale string
		seed  int64
	}{
		{worldgen.ScaleBench, 1}, {worldgen.ScaleBench, 3},
		{worldgen.ScaleCI, 1}, {worldgen.ScaleCI, 3},
	} {
		t.Run(fmt.Sprintf("%s-%d-ch", c.scale, c.seed), func(t *testing.T) {
			if c.scale == worldgen.ScaleCI && (raceEnabled || testing.Short()) {
				t.Skip("ci-scale builds take minutes under the race detector; CI runs this test un-instrumented")
			}
			w := worldgen.Build(worldgen.MustScale(c.scale, c.seed))
			opt := Options{SkipMapMatching: true}
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
			if !bytes.Equal(regionImage(built.rg), regionImage(again.rg)) {
				t.Error("the region graph's image moved")
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

// TestLoadedIsFixedPointOfRetransduce: a router restored by Load is the
// router that was saved, so it too is a fixed point of Retransduce —
// every fit, every region preference and the model digest's 220 routes
// stay as loaded. A road stored rounded would fail this: the loaded
// copy's first Retransduce relearns on other weights than the saved
// fits were learned on.
func TestLoadedIsFixedPointOfRetransduce(t *testing.T) {
	for _, c := range []struct {
		scale string
		seed  int64
	}{
		{worldgen.ScaleBench, 1}, {worldgen.ScaleBench, 3},
		{worldgen.ScaleCI, 1}, {worldgen.ScaleCI, 3},
	} {
		t.Run(fmt.Sprintf("%s-%d", c.scale, c.seed), func(t *testing.T) {
			if c.scale == worldgen.ScaleCI && (raceEnabled || testing.Short()) {
				t.Skip("ci-scale builds take minutes under the race detector; CI runs this test un-instrumented")
			}
			w := worldgen.Build(worldgen.MustScale(c.scale, c.seed))
			opt := Options{SkipMapMatching: true}
			built, err := Build(w.Road, w.Train, opt)
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(bytes.NewReader(saveArtifact(t, built)))
			if err != nil {
				t.Fatal(err)
			}
			again := loaded.IngestClone()
			if st := again.Retransduce(opt); st.LearnedPrefs == 0 || st.Transferred == 0 {
				t.Fatalf("Retransduce derived nothing: %+v", st)
			}
			moved := 0
			for id := range loaded.rg.Edges {
				a, aok := loaded.LearnedPreference(id)
				b, bok := again.LearnedPreference(id)
				if a != b || aok != bok {
					moved++
				}
			}
			if moved > 0 {
				t.Errorf("Retransduce moved %d of %d fits", moved, len(loaded.rg.Edges))
			}
			if !reflect.DeepEqual(loaded.regionPrefs, again.regionPrefs) {
				t.Error("region preferences moved")
			}
			ll, lr := modelDigest(loaded)
			if al, ar := modelDigest(again); al != ll || ar != lr {
				t.Errorf("model digest learned %#x routes %#x, loaded %#x %#x", al, ar, ll, lr)
			}
		})
	}
}
