package repro_test

import (
	"math/rand"
	"testing"

	"repro/internal/quality"
	"repro/internal/serve"
	"repro/internal/traj"
)

// TestQualityOverheadBudget pins the shadow-scoring tax on the serving
// hot path: an engine carrying a quality observer at the production
// default sample rate (0.1) must stay within 10% of an unobserved
// engine on the Zipf-skewed CH workload, with live ingest batches
// interleaved so the observer is actually offered work, in the median
// of interleaved pairs (pairedOverhead). The offer path
// runs under the engine's write lock and is a counter bump plus a
// bounded channel send for the sampled tenth; the re-routes themselves
// happen on the observer's own paced goroutine — anything above the
// budget means shadow scoring crept onto the route or ingest fast path.
func TestQualityOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison; skipped in -short")
	}
	w := benchWorld(t)
	r := w.MustRouter()
	qs := benchQueries(t)
	trips := w.Test
	if len(trips) < 8 {
		t.Skip("not enough test trajectories for ingest load")
	}

	rng := rand.New(rand.NewSource(11))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(qs)-1))
	mix := make([]int, 8192)
	for i := range mix {
		mix[i] = int(zipf.Uint64())
	}

	pass := func(e *serve.Engine) func() {
		return func() {
			for i, k := range mix {
				if i%1024 == 1023 {
					lo := (i / 1024 * 4) % (len(trips) - 4)
					batch := make([]*traj.Trajectory, 4)
					copy(batch, trips[lo:lo+4])
					e.IngestMatched(batch)
				}
				q := qs[k]
				e.Route(q.S, q.D)
			}
		}
	}

	bare := serve.NewEngine(r.IngestClone(), serve.Options{CacheSize: -1})
	observed := serve.NewEngine(r.IngestClone(), serve.Options{CacheSize: -1})
	qo := quality.Attach(observed, quality.Config{SampleRate: 0.1})
	defer qo.Close()

	const budget = 1.10
	var ratio float64
	for attempt := 1; attempt <= 3; attempt++ {
		ratio = pairedOverhead(pass(bare), pass(observed))
		t.Logf("attempt %d: observed / unobserved, median of %d interleaved pairs: %.3f", attempt, overheadPairs, ratio)
		if ratio <= budget {
			st := qo.QualityStats()
			t.Logf("observer: offered %d, sampled %d, scored %d, dropped %d",
				st.Offered, st.Sampled, st.Scored, st.Dropped)
			if st.Offered == 0 {
				t.Fatal("budget run offered the observer nothing; the comparison proved nothing")
			}
			return
		}
	}
	t.Fatalf("quality-observer overhead ratio %.3f exceeds the %.0f%% budget", ratio, 100*(budget-1))
}
