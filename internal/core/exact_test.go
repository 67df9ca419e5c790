package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
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
// every Learn ran its 21 searches per path on plain Dijkstra. Both
// backends must reproduce them: BackendCH learns its master-only paths
// on the CCH, BackendDijkstra on plain Dijkstra, and Ingest must work
// on either.
//
// The digests depend on worldgen's ci city and on region construction;
// a change that legitimately moves either regenerates them by running
// this test and copying the values it prints.
func TestLearnedModelUnchangedBySearchElimination(t *testing.T) {
	if raceEnabled {
		t.Skip("two ci-scale builds take minutes under the race detector; CI runs this test un-instrumented")
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
	for _, backend := range []PathBackend{BackendCH, BackendDijkstra} {
		r, err := Build(w.Road, w.Train, Options{SkipMapMatching: true, PathBackend: backend})
		if err != nil {
			t.Fatalf("Build(%v): %v", backend, err)
		}
		learned, routes := modelDigest(r)
		if learned != wantBuiltLearned || routes != wantBuiltRoutes {
			t.Errorf("%v, after Build: learned %#x routes %#x, want %#x %#x", backend, learned, routes, wantBuiltLearned, wantBuiltRoutes)
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
			t.Fatalf("%v: 16 batches relearned nothing", backend)
		}
		learned, routes = modelDigest(cur)
		if learned != wantIngestedLearned || routes != wantIngestedRoutes {
			t.Errorf("%v, after 16 batches: learned %#x routes %#x, want %#x %#x", backend, learned, routes, wantIngestedLearned, wantIngestedRoutes)
		}
	}
}
