package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/roadnet"
	"repro/internal/traj"
	"repro/internal/worldgen"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// modelDigest hashes everything search elimination must leave alone:
// the learned preference of every region edge (preference, similarity
// bits, paths used) and the routes on 220 fixed ODs.
func modelDigest(r *Router) (learned, routes uint64) {
	put := func(h interface{ Write([]byte) (int, error) }, v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	lh := fnv.New64a()
	for id := range r.RegionGraph().Edges {
		res, ok := r.LearnedPreference(id)
		if !ok {
			continue
		}
		put(lh, uint64(id))
		put(lh, uint64(res.Preference.Master)<<8|uint64(res.Preference.Slave))
		put(lh, math.Float64bits(res.Similarity))
		put(lh, uint64(res.PathsUsed))
	}
	rh := fnv.New64a()
	n := r.Road().NumVertices()
	for i := 0; i < 220; i++ {
		s, d := roadnet.VertexID(i*37%n), roadnet.VertexID((i*101+13)%n)
		for _, v := range r.Route(s, d).Path {
			put(rh, uint64(v))
		}
		put(rh, math.MaxUint64) // path separator
	}
	return lh.Sum64(), rh.Sum64()
}

// TestLearnedModelUnchangedBySearchElimination pins the learned model
// of the ci city — after Build and after 16 chained IngestClone →
// Ingest batches of two held-out trips, the benchmark's write schedule —
// to digests recorded on the commit before search elimination, when
// every Learn ran its 21 searches per path on plain Dijkstra. The
// router reproduces them on its hierarchy: derive learns on a pass
// fork, Ingest on a plain fork.
//
// The digests depend on worldgen's ci city and on region construction;
// a change that legitimately moves either regenerates them by running
// this test and copying the values it prints.
func TestLearnedModelUnchangedBySearchElimination(t *testing.T) {
	if raceEnabled {
		t.Skip("a ci-scale build takes minutes under the race detector; CI runs this test un-instrumented")
	}
	const (
		wantBuiltLearned    = uint64(0x13536e18ee53d211)
		wantBuiltRoutes     = uint64(0x8d6bf3ae138626eb)
		wantIngestedLearned = uint64(0x8062b4112a131f9e)
		wantIngestedRoutes  = uint64(0x9a6fb5c79a681e52)
	)
	w := worldgen.Build(worldgen.MustScale(worldgen.ScaleCI, 1))
	var held []*traj.Trajectory
	for _, tr := range w.Test {
		if len(tr.Truth) >= 2 {
			held = append(held, tr)
		}
	}
	r, err := Build(w.Road, w.Train, Options{SkipMapMatching: true})
	if err != nil {
		t.Fatal(err)
	}
	learned, routes := modelDigest(r)
	if learned != wantBuiltLearned || routes != wantBuiltRoutes {
		t.Errorf("after Build: learned %#x routes %#x, want %#x %#x", learned, routes, wantBuiltLearned, wantBuiltRoutes)
	}
	cur, relearned := r, 0
	for i := 0; i < 16; i++ {
		next := cur.IngestClone()
		st := next.Ingest(held[2*i:2*i+2], IngestOptions{SkipMapMatching: true})
		next.PrepareMetricsTouched(st.TouchedEdges)
		relearned += st.Relearned
		cur = next
	}
	if relearned == 0 {
		t.Fatal("16 batches relearned nothing")
	}
	learned, routes = modelDigest(cur)
	if learned != wantIngestedLearned || routes != wantIngestedRoutes {
		t.Errorf("after 16 batches: learned %#x routes %#x, want %#x %#x", learned, routes, wantIngestedLearned, wantIngestedRoutes)
	}
}

// routeDigest is an FNV-64a over every answer r gives on n uniform ODs
// drawn from rand.NewSource(42): each Route's path, a separator, its
// region path and Evidence<<8|Category, and on every 10th OD the paths
// of RouteK(s, d, 4), each followed by a separator.
func routeDigest(r *Router, n int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	nv := r.Road().NumVertices()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		s, d := roadnet.VertexID(rng.Intn(nv)), roadnet.VertexID(rng.Intn(nv))
		res := r.Route(s, d)
		for _, v := range res.Path {
			put(uint64(v))
		}
		put(math.MaxUint64)
		for _, reg := range res.RegionPath {
			put(uint64(reg))
		}
		put(uint64(res.Evidence)<<8 | uint64(res.Category))
		if i%10 != 0 {
			continue
		}
		for _, alt := range r.RouteK(s, d, 4) {
			for _, v := range alt.Path {
				put(uint64(v))
			}
			put(math.MaxUint64)
		}
	}
	return h.Sum64()
}

// TestCIRouteDigest pins every answer of the CH-backed bench and ci
// cities (seed 1) on 20,000 uniform ODs — path, region path, evidence
// and category, plus RouteK(4) on every 10th — to digests recorded
// before region search read neighbour IDs and the CCH query dropped its
// epoch stamps. Both changes are same-output by construction; this is
// the check that they are. The values are never re-recorded: a change
// that moves them changes answers. The ci half skips under -race and
// -short.
func TestCIRouteDigest(t *testing.T) {
	want := map[string]uint64{
		worldgen.ScaleBench: 0x51e82966162fa242,
		worldgen.ScaleCI:    0x33e7dafb79c5f546,
	}
	for _, scale := range []string{worldgen.ScaleBench, worldgen.ScaleCI} {
		if scale == worldgen.ScaleCI && (raceEnabled || testing.Short()) {
			t.Logf("skipping the ci city under -race/-short")
			continue
		}
		if got := routeDigest(cityRouter(t, scale).Clone(), 20000); got != want[scale] {
			t.Errorf("%s: route digest %#x, want %#x", scale, got, want[scale])
		}
	}
}
