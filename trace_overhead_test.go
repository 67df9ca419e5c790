package repro_test

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool

// overheadPairs is how many interleaved bare/instrumented pairs an
// overhead budget takes the median of.
const overheadPairs = 21

// pairedOverhead runs bare and with in overheadPairs interleaved pairs
// — which side goes first alternates — and returns the median of the
// per-pair ratios of their wall times, with over bare. Both sides of a
// pair share the machine's load of the moment, so drift in it cancels
// instead of landing on whichever side happened to be measured second.
func pairedOverhead(bare, with func()) float64 {
	timed := func(f func()) float64 {
		start := time.Now()
		f()
		return float64(time.Since(start))
	}
	bare() // warm both before the first pair
	with()
	ratios := make([]float64, overheadPairs)
	for i := range ratios {
		var b, w float64
		if i%2 == 0 {
			b, w = timed(bare), timed(with)
		} else {
			w, b = timed(with), timed(bare)
		}
		ratios[i] = w / b
	}
	slices.Sort(ratios)
	return ratios[len(ratios)/2]
}

// TestTraceOverheadBudget pins the telemetry tax on the serving hot
// path: an engine carrying a *disabled* tracer must stay within 5% of
// an engine with no tracer at all on the BenchmarkServe/EngineColdCache
// workload (Zipf-skewed queries, cache off — the configuration where
// per-query fixed costs are most visible), in the median of interleaved
// pairs, and must not allocate once more per Engine.Route (not checked
// under the race detector, which drops pooled items). The disabled
// path is a handful of nil checks and one context miss; anything above
// the budget means tracing crept onto the fast path.
func TestTraceOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison; skipped in -short")
	}
	w := benchWorld(t)
	r := w.MustRouter()
	qs := benchQueries(t)

	rng := rand.New(rand.NewSource(11))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(qs)-1))
	mix := make([]int, 8192)
	for i := range mix {
		mix[i] = int(zipf.Uint64())
	}

	bare := serve.NewEngine(r.IngestClone(), serve.Options{CacheSize: -1})
	disabled := obs.NewTracer(obs.Config{})
	disabled.SetEnabled(false)
	traced := serve.NewEngine(r.IngestClone(), serve.Options{CacheSize: -1, Tracer: disabled})

	for _, k := range mix[:16] {
		q := qs[k]
		a := testing.AllocsPerRun(200, func() { bare.Route(q.S, q.D) })
		b := testing.AllocsPerRun(200, func() { traced.Route(q.S, q.D) })
		if b != a && !raceEnabled {
			t.Fatalf("route %d -> %d: %v allocations with a disabled tracer, %v without", q.S, q.D, b, a)
		}
	}

	pass := func(e *serve.Engine) func() {
		return func() {
			for _, k := range mix {
				q := qs[k]
				e.Route(q.S, q.D)
			}
		}
	}
	const budget = 1.05
	var ratio float64
	for attempt := 1; attempt <= 3; attempt++ {
		ratio = pairedOverhead(pass(bare), pass(traced))
		t.Logf("attempt %d: disabled tracer / no tracer, median of %d interleaved pairs: %.3f", attempt, overheadPairs, ratio)
		if ratio <= budget {
			return
		}
	}
	t.Fatalf("disabled-tracing overhead ratio %.3f exceeds the %.0f%% budget", ratio, 100*(budget-1))
}
