package ch_test

import (
	"math/rand"
	"testing"

	"repro/internal/ch"
	"repro/internal/roadnet"
	"repro/internal/worldgen"
)

// BenchmarkCCHQuery times the elimination-tree query under the TT
// metric on uniform ODs at two worldgen scales, Cost (the climbs alone)
// and Route (climbs, unpacking, and the one allocation of the returned
// path). It reports the topology's height: query cost follows the
// contraction order, not the OD.
func BenchmarkCCHQuery(b *testing.B) {
	for _, scale := range []string{worldgen.ScaleCI, worldgen.ScaleCity} {
		b.Run(scale, func(b *testing.B) {
			g, _ := worldgen.BuildGraph(worldgen.MustScale(scale, 1))
			topo := ch.BuildTopology(g)
			m := topo.Customize(func(e roadnet.EdgeID) float64 { return g.EdgeWeight(e, roadnet.TT) })
			q := ch.NewMetricQuery(topo)
			rng := rand.New(rand.NewSource(1))
			pairs := make([][2]roadnet.VertexID, 4096)
			for i := range pairs {
				pairs[i] = [2]roadnet.VertexID{
					roadnet.VertexID(rng.Intn(g.NumVertices())),
					roadnet.VertexID(rng.Intn(g.NumVertices())),
				}
			}
			b.Run("Cost", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p := pairs[i%len(pairs)]
					q.Cost(m, p[0], p[1])
				}
				b.ReportMetric(float64(topo.Height()), "height")
			})
			b.Run("Route", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p := pairs[i%len(pairs)]
					q.Route(m, p[0], p[1])
				}
				b.ReportMetric(float64(topo.Height()), "height")
			})
		})
	}
}
