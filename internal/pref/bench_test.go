package pref_test

import (
	"testing"

	"repro/internal/ch"
	"repro/internal/pref"
	"repro/internal/roadnet"
	"repro/internal/route"
	"repro/internal/worldgen"
)

var sinkResult pref.Result

// BenchmarkLearn times one Learn call per iteration, cycling over the
// T-edge path sets of the ci city: all-Dijkstra (pref.NewLearner), with
// the master searches on a CCH fork (what core.Router's Ingest learns
// on), and the same with a memo — after the first cycle a warm
// one, which answers every search an earlier cycle ran.
func BenchmarkLearn(b *testing.B) {
	w := worldgen.Build(worldgen.MustScale(worldgen.ScaleCI, 1))
	sets := tEdgePathSets(w)
	che := route.BuildCHEngine(w.Road, roadnet.TT, ch.Config{})
	memoized := pref.NewLearnerOn(che.Fork())
	memoized.Memo = pref.NewMemo(w.Road, memoized.Slaves)
	for _, bc := range []struct {
		name string
		l    *pref.Learner
	}{
		{"dijkstra", pref.NewLearner(w.Road)},
		{"cch", pref.NewLearnerOn(che.Fork())},
		{"cch-memo", memoized},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			// The ledger spans every round the framework runs; count this
			// round's searches only.
			bc.l.Searches = pref.SearchStats{}
			for i := 0; i < b.N; i++ {
				sinkResult = bc.l.Learn(sets[i%len(sets)])
			}
			s := bc.l.Searches
			b.ReportMetric(float64(s.Run)/float64(b.N), "searches/op")
			b.ReportMetric(float64(s.Run-s.Hierarchy)/float64(b.N), "dijkstra/op")
			b.ReportMetric(float64(s.Bounded)/float64(b.N), "bounded/op")
			b.ReportMetric(float64(s.Memo)/float64(b.N), "memo/op")
		})
	}
}
