package worldgen

import "testing"

// BenchmarkWorldgenBuild times Build — road network, connectivity
// repair and the trajectory simulation — at the bench and ci scales,
// and reports how many trips it simulated.
func BenchmarkWorldgenBuild(b *testing.B) {
	for _, scale := range []string{ScaleBench, ScaleCI} {
		b.Run(scale, func(b *testing.B) {
			spec := MustScale(scale, 1)
			var w *World
			for b.Loop() {
				w = Build(spec)
			}
			b.ReportMetric(float64(len(w.All)), "trips")
		})
	}
}
