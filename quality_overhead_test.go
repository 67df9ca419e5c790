package repro_test

import (
	"math/rand"
	"testing"

	"repro/internal/ch"
	"repro/internal/quality"
	"repro/internal/serve"
	"repro/internal/traj"
)

// TestQualityOverheadBudget pins the shadow-scoring tax on the serving
// hot path: an engine carrying a quality observer at the production
// default sample rate (0.1) must stay within 10% of an unobserved
// engine on the Zipf-skewed CH workload, with live ingest batches
// interleaved so the observer is actually offered work. The offer path
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
	chRouter := r.IngestClone()
	chRouter.EnableCH(ch.Config{})
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

	measure := func(e *serve.Engine) float64 {
		// Min of two runs: the second absorbs warm-up jitter.
		best := 0.0
		for run := 0; run < 2; run++ {
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if i%1024 == 1023 {
						lo := (i / 1024 * 4) % (len(trips) - 4)
						batch := make([]*traj.Trajectory, 4)
						copy(batch, trips[lo:lo+4])
						e.IngestMatched(batch)
					}
					q := qs[mix[i%len(mix)]]
					e.Route(q.S, q.D)
				}
			})
			ns := float64(res.NsPerOp())
			if best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}

	bare := serve.NewEngine(chRouter.IngestClone(), serve.Options{CacheSize: -1})
	observed := serve.NewEngine(chRouter.IngestClone(), serve.Options{CacheSize: -1})
	qo := quality.Attach(observed, quality.Config{SampleRate: 0.1})
	defer qo.Close()

	const budget = 1.10
	var ratio float64
	for attempt := 1; attempt <= 3; attempt++ {
		base := measure(bare)
		with := measure(observed)
		ratio = with / base
		t.Logf("attempt %d: unobserved %.0f ns/op, observed %.0f ns/op, ratio %.3f", attempt, base, with, ratio)
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
