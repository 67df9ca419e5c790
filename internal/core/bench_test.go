package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/ch"
	"repro/internal/roadnet"
	"repro/internal/route"
	"repro/internal/traj"
	"repro/internal/worldgen"
)

var sinkIngest IngestStats

// BenchmarkIngestBatch times the serving write path's core step on the
// ci city: IngestClone the current generation, Ingest a batch of two
// held-out trips, customize what the relearn needs, and make the clone
// the next generation — chained, so path sets grow as they do under
// serve.Engine. When the held-out trips run out the chain restarts from
// a router freshly loaded from the built one's artifact, as a restart
// would (untimed), so every cycle starts on an empty lineage memo as
// ingest_stream's passes do.
func BenchmarkIngestBatch(b *testing.B) {
	w := worldgen.Build(worldgen.MustScale(worldgen.ScaleCI, 1))
	built, err := Build(w.Road, w.Train, Options{SkipMapMatching: true})
	if err != nil {
		b.Fatal(err)
	}
	var art bytes.Buffer
	if err := built.Save(&art); err != nil {
		b.Fatal(err)
	}
	var batches [][]*traj.Trajectory
	for i := 0; i+2 <= len(w.Test); i += 2 {
		batches = append(batches, w.Test[i:i+2])
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cur *Router
	searches, dijkstra, bounded, memo := 0, 0, 0, 0
	for i := 0; i < b.N; i++ {
		if i%len(batches) == 0 {
			b.StopTimer()
			if cur, err = Load(bytes.NewReader(art.Bytes())); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		next := cur.IngestClone()
		sinkIngest = next.Ingest(batches[i%len(batches)], IngestOptions{SkipMapMatching: true})
		next.PrepareMetricsTouched(sinkIngest.TouchedEdges)
		searches += sinkIngest.Learn.Run
		dijkstra += sinkIngest.Learn.Run - sinkIngest.Learn.Hierarchy
		bounded += sinkIngest.Learn.Bounded
		memo += sinkIngest.Learn.Memo
		cur = next
	}
	b.ReportMetric(float64(searches)/float64(b.N), "searches/op")
	b.ReportMetric(float64(dijkstra)/float64(b.N), "dijkstra/op")
	b.ReportMetric(float64(bounded)/float64(b.N), "bounded/op")
	b.ReportMetric(float64(memo)/float64(b.N), "memo/op")
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
// ci city's v3 artifact: Save; Load, which derives the hierarchy from
// the carried order and customizes every metric the router routes on;
// and LoadOnto its loaded base (the checkpoint beside its base), which
// shares the base's road and hierarchy. Both loads run on two
// goroutines: the checksum, then the hierarchy with its three scalar
// metrics, beside the road, region, preference and metadata decode;
// the masked metrics follow, a metric per core, each stored against its
// master. Load reports the sizes the loaded router keeps
// (reportCHSizes).
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
	baseID, _ := base.RoadIdentity()
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
		b.StopTimer()
		reportCHSizes(b, base.eng)
	})
	b.Run("LoadOnto", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			LoadOnto(bytes.NewReader(art), base, baseID)
		}
	})
}

var (
	sinkMetric *ch.Metric
	sinkEngine *route.CHEngine
)

// BenchmarkCustomize times customization on the ci city's topology:
// One is a single metric (travel time), customized inline; Served is
// what Load customizes for the city's router — the three scalar
// metrics, then every masked metric it routes on against its master,
// each batch handed out a metric per core — reported per metric too.
func BenchmarkCustomize(b *testing.B) {
	r := cityRouter(b, worldgen.ScaleCI)
	topo := r.eng.Topology()
	b.Run("One", func(b *testing.B) {
		cost := func(e roadnet.EdgeID) float64 { return r.road.EdgeWeight(e, roadnet.TT) }
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkMetric = topo.Customize(cost)
		}
		b.StopTimer()
		reportCHSizes(b, r.eng)
	})
	b.Run("Served", func(b *testing.B) {
		keys := r.MetricKeys()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkEngine = route.NewCHEngine(r.road, topo, roadnet.TT, keys...)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/metric")
		b.ReportMetric(float64(len(keys)), "metrics")
		reportCHSizes(b, sinkEngine)
	})
}

// reportCHSizes reports, on eng's topology, a dense metric's bytes per
// skeleton arc, the mean bytes of a metric eng keeps resident (three
// dense scalar metrics and the masked ones, each a delta against its
// master) and the shared topology's KB. The dense metric is customized
// for the report, outside the timer.
func reportCHSizes(b *testing.B, eng *route.CHEngine) {
	topo := eng.Topology()
	m := topo.Customize(func(roadnet.EdgeID) float64 { return 1 })
	b.ReportMetric(float64(m.Bytes())/float64(topo.NumArcs()), "metric_B/arc")
	b.ReportMetric(float64(eng.MetricBytes())/float64(eng.ResidentMetrics()), "B/resident_metric")
	b.ReportMetric(float64(topo.Bytes())/1024, "topology_KB")
}

// BenchmarkRegionSearch times Route's first step alone, the search of
// the region graph, between the regions of uniform ODs at ci and at
// 6.4k vertices. ODs with an endpoint outside every region, or with
// both in one region, are skipped: Route runs no search for them. It
// reports how many regions a search reaches.
func BenchmarkRegionSearch(b *testing.B) {
	for _, c := range []struct {
		name string
		spec worldgen.Spec
	}{{"ci", worldgen.MustScale(worldgen.ScaleCI, 1)}, {"6.4k", worldgen.ForVertices(6400, 1)}} {
		b.Run(c.name, func(b *testing.B) {
			var r *Router
			if c.name == "ci" {
				r = cityRouter(b, worldgen.ScaleCI).Clone()
			} else {
				w := worldgen.Build(c.spec)
				built, err := Build(w.Road, w.Train, Options{SkipMapMatching: true})
				if err != nil {
					b.Fatal(err)
				}
				r = built.Clone()
			}
			n := r.Road().NumVertices()
			rng := rand.New(rand.NewSource(1))
			pairs := make([][2]int, 0, 4096)
			reached := 0
			for len(pairs) < cap(pairs) {
				rs, rd := r.rg.RegionOf(roadnet.VertexID(rng.Intn(n))), r.rg.RegionOf(roadnet.VertexID(rng.Intn(n)))
				if rs < 0 || rd < 0 || rs == rd {
					continue
				}
				pairs = append(pairs, [2]int{rs, rd})
				r.regionSearch(rs, rd)
				for _, e := range r.scratch.seen {
					if e == r.scratch.epoch {
						reached++
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				r.regionSearch(p[0], p[1])
			}
			b.ReportMetric(float64(reached)/float64(len(pairs)), "regions_reached/search")
		})
	}
}
