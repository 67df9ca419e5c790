package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/ch"
	"repro/internal/roadnet"
	"repro/internal/traj"
	"repro/internal/worldgen"
)

var sinkIngest IngestStats

// BenchmarkIngestBatch times the serving write path's core step on the
// ci city: IngestClone the current generation, Ingest a batch of two
// held-out trips, customize what the relearn needs, and make the clone
// the next generation — chained, so path sets grow as they do under
// serve.Engine. The chain restarts from the built router when the
// held-out trips run out.
func BenchmarkIngestBatch(b *testing.B) {
	w := worldgen.Build(worldgen.MustScale(worldgen.ScaleCI, 1))
	base, err := Build(w.Road, w.Train, Options{SkipMapMatching: true, PathBackend: BackendCH})
	if err != nil {
		b.Fatal(err)
	}
	var batches [][]*traj.Trajectory
	for i := 0; i+2 <= len(w.Test); i += 2 {
		batches = append(batches, w.Test[i:i+2])
	}
	b.ReportAllocs()
	b.ResetTimer()
	cur := base
	searches, dijkstra, bounded := 0, 0, 0
	for i := 0; i < b.N; i++ {
		if i%len(batches) == 0 {
			cur = base
		}
		next := cur.IngestClone()
		sinkIngest = next.Ingest(batches[i%len(batches)], IngestOptions{SkipMapMatching: true})
		next.PrepareMetricsTouched(sinkIngest.TouchedEdges)
		searches += sinkIngest.Learn.Run
		dijkstra += sinkIngest.Learn.Run - sinkIngest.Learn.Hierarchy
		bounded += sinkIngest.Learn.Bounded
		cur = next
	}
	b.ReportMetric(float64(searches)/float64(b.N), "searches/op")
	b.ReportMetric(float64(dijkstra)/float64(b.N), "dijkstra/op")
	b.ReportMetric(float64(bounded)/float64(b.N), "bounded/op")
}

var sinkRoute RouteResult

// BenchmarkRouteCold times Router.Route on the ci city over uniform
// ODs — the route_cold workload's inner call: region search, CCH query
// and splice, no cache in front.
func BenchmarkRouteCold(b *testing.B) {
	r := cityRouter(b, worldgen.ScaleCI).Clone()
	n := r.Road().NumVertices()
	rng := rand.New(rand.NewSource(1))
	ods := make([][2]roadnet.VertexID, 4096)
	for i := range ods {
		ods[i] = [2]roadnet.VertexID{roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		od := ods[i%len(ods)]
		sinkRoute = r.Route(od[0], od[1])
	}
}

// BenchmarkArtifact times what a restart and a checkpoint pay for the
// ci city's v3 artifact: Save; Load; LoadOnto a road network already
// decoded (the checkpoint beside its base); and EnableCH on a loaded
// router — the hierarchy derived from the carried order, then every
// applied metric customized.
func BenchmarkArtifact(b *testing.B) {
	r := cityRouter(b, worldgen.ScaleCI)
	var buf bytes.Buffer
	if err := r.Clone().Save(&buf); err != nil {
		b.Fatal(err)
	}
	art := buf.Bytes()
	base, err := Load(bytes.NewReader(art))
	if err != nil {
		b.Fatal(err)
	}
	id, _ := base.RoadIdentity()
	b.Run("Save", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			r.Clone().Save(&buf)
		}
		b.ReportMetric(float64(len(art))/1024, "KB")
	})
	b.Run("Load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Load(bytes.NewReader(art))
		}
	})
	b.Run("LoadOnto", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			LoadOnto(bytes.NewReader(art), base.Road(), id)
		}
	})
	b.Run("EnableCH", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			l := base.Clone()
			b.StartTimer()
			l.EnableCH(ch.Config{})
		}
	})
}
