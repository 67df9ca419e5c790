package core

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/traj"
	"repro/internal/worldgen"
)

// trainCopies returns shallow copies of the world's training trips, so
// matchedPaths can set Matched without touching the world.
func trainCopies(w *worldgen.World) []*traj.Trajectory {
	copies := make([]*traj.Trajectory, len(w.Train))
	for i, tr := range w.Train {
		c := *tr
		copies[i] = &c
	}
	return copies
}

// matchDigest is FNV-64a over every trip's Matched vertices, each as a
// little-endian uint64, with ^uint64(0) after each trip.
func matchDigest(ts []*traj.Trajectory) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, t := range ts {
		for _, v := range t.Matched {
			put(uint64(v))
		}
		put(^uint64(0))
	}
	return h.Sum64()
}

// TestCIMatchDigest pins the map matcher's output on every training
// trip of the bench and ci worlds (seed 1) to digests recorded while
// the matcher still built a via chain for every vertex its bounded
// searches settled. Reading the search's labels and building one chain
// per winning transition is same-output by construction; this is the
// check that it is. The values are never re-recorded. The ci half skips
// under -race and -short.
func TestCIMatchDigest(t *testing.T) {
	want := map[string]uint64{
		worldgen.ScaleBench: 0xf31027c6ba3ddf3d,
		worldgen.ScaleCI:    0x253b11541d460296,
	}
	for _, scale := range []string{worldgen.ScaleBench, worldgen.ScaleCI} {
		if scale == worldgen.ScaleCI && (raceEnabled || testing.Short()) {
			t.Logf("skipping the ci world under -race/-short")
			continue
		}
		w := worldgen.Build(worldgen.MustScale(scale, 1))
		copies := trainCopies(w)
		matchedPaths(w.Road, &lazyIndex{}, copies, false, 1)
		if got := matchDigest(copies); got != want[scale] {
			t.Errorf("%s: match digest %#x over %d trips, want %#x", scale, got, len(copies), want[scale])
		}
	}
}

// BenchmarkMatch times map matching every training trip of the bench
// and ci worlds (seed 1) on one worker, as Build does before it learns
// anything. It reports microseconds per GPS record.
func BenchmarkMatch(b *testing.B) {
	for _, scale := range []string{worldgen.ScaleBench, worldgen.ScaleCI} {
		b.Run(scale, func(b *testing.B) {
			w := worldgen.Build(worldgen.MustScale(scale, 1))
			lazy := &lazyIndex{}
			lazy.get(w.Road)
			records := 0
			for _, tr := range w.Train {
				records += len(tr.Records)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copies := trainCopies(w)
				b.StartTimer()
				matchedPaths(w.Road, lazy, copies, false, 1)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*records), "us/record")
		})
	}
}
