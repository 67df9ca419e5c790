package ch_test

import (
	"math/rand"
	"testing"

	"repro/internal/ch"
	"repro/internal/pref"
	"repro/internal/roadnet"
	"repro/internal/route"
	"repro/internal/worldgen"
)

// BenchmarkCCHQuery times the elimination-tree query on uniform ODs at
// two worldgen scales, Cost (the climbs alone) and Route (climbs,
// unpacking, and the one allocation of the returned path), under three
// metrics: TT, dense; Masked, TT restricted to the collector network
// (pref.Collectors) as route.CHEngine stores it, a delta against TT
// that the climb reads a bitmap word at a time; and MaskedDense, the
// same cost function customized dense, so Masked against MaskedDense
// is what the bitmap costs a query. It reports the topology's height —
// query cost follows the contraction order, not the OD — and the sizes
// a query reads: the metric's own bytes per skeleton arc (a masked
// metric's delta, without its master's), the shared topology's KB and
// the query's label bytes per vertex and side.
func BenchmarkCCHQuery(b *testing.B) {
	for _, scale := range []string{worldgen.ScaleCI, worldgen.ScaleCity} {
		b.Run(scale, func(b *testing.B) {
			g, _ := worldgen.BuildGraph(worldgen.MustScale(scale, 1))
			topo := ch.BuildTopology(g)
			tt := topo.Customize(func(e roadnet.EdgeID) float64 { return g.EdgeWeight(e, roadnet.TT) })
			masked := costOf(g, route.OutTypeMasks(g), roadnet.TT, pref.Collectors.Mask())
			q := ch.NewMetricQuery(topo)
			rng := rand.New(rand.NewSource(1))
			pairs := make([][2]roadnet.VertexID, 4096)
			for i := range pairs {
				pairs[i] = [2]roadnet.VertexID{
					roadnet.VertexID(rng.Intn(g.NumVertices())),
					roadnet.VertexID(rng.Intn(g.NumVertices())),
				}
			}
			for _, metric := range []struct {
				name string
				m    *ch.Metric
			}{
				{"TT", tt},
				{"Masked", topo.CustomizeAll([]func(roadnet.EdgeID) float64{masked}, []*ch.Metric{tt})[0]},
				{"MaskedDense", topo.Customize(masked)},
			} {
				m := metric.m
				b.Run(metric.name+"/Cost", func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						p := pairs[i%len(pairs)]
						q.Cost(m, p[0], p[1])
					}
					reportSizes(b, topo, m, q)
				})
				b.Run(metric.name+"/Route", func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						p := pairs[i%len(pairs)]
						q.Route(m, p[0], p[1])
					}
					reportSizes(b, topo, m, q)
				})
			}
		})
	}
}

// reportSizes reports topo's height and size, m's bytes per arc and
// q's label bytes per vertex on one side.
func reportSizes(b *testing.B, topo *ch.Topology, m *ch.Metric, q *ch.MetricQuery) {
	b.ReportMetric(float64(topo.Height()), "height")
	b.ReportMetric(float64(m.Bytes())/float64(topo.NumArcs()), "metric_B/arc")
	b.ReportMetric(float64(topo.Bytes())/1024, "topology_KB")
	b.ReportMetric(float64(q.LabelBytesPerVertex()), "label_B/vertex")
}

// BenchmarkContractionOrder times the greedy elimination game alone —
// the half of contraction an artifact carries and a restart skips — at
// ci and at 6.4k vertices.
func BenchmarkContractionOrder(b *testing.B) {
	for _, c := range []struct {
		name string
		spec worldgen.Spec
	}{{"ci", worldgen.MustScale(worldgen.ScaleCI, 1)}, {"6.4k", worldgen.ForVertices(6400, 1)}} {
		b.Run(c.name, func(b *testing.B) {
			g, _ := worldgen.BuildGraph(c.spec)
			b.ReportAllocs()
			for b.Loop() {
				ch.ContractionOrder(g)
			}
		})
	}
}
