package serve

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// buildServeWorld builds a router from the first 60% of a simulated
// trajectory stream and returns it with the remaining 40% for live
// ingestion, mirroring a deployment that bootstraps from history.
func buildServeWorld(tb testing.TB, seed int64, trips int) (*core.Router, []*traj.Trajectory) {
	tb.Helper()
	road := roadnet.Generate(roadnet.Tiny(seed))
	ts := traj.NewSimulator(road, traj.D2Like(seed, trips)).Run()
	if len(ts) < 10 {
		tb.Fatalf("simulator made only %d trips", len(ts))
	}
	cut := len(ts) * 6 / 10
	r, err := core.Build(road, ts[:cut], core.Options{SkipMapMatching: true})
	if err != nil {
		tb.Fatalf("Build: %v", err)
	}
	return r, ts[cut:]
}

var (
	worldOnce  sync.Once
	worldBase  *core.Router
	worldFresh []*traj.Trajectory
)

// sharedWorld amortizes one offline build across the read-only tests.
// Tests that ingest must NOT use it directly — they wrap the shared
// base in their own engine, which deep-clones before mutating.
func sharedWorld(tb testing.TB) (*core.Router, []*traj.Trajectory) {
	tb.Helper()
	worldOnce.Do(func() {
		worldBase, worldFresh = buildServeWorld(tb, 41, 400)
	})
	return worldBase, worldFresh
}

// ownLineage is a router with base's model and a lineage of its own: a
// Save→Load copy derives its own hierarchy and metric table and starts
// an empty learner memo, so nothing it answers or customizes is read
// from what another engine made of base.
func ownLineage(tb testing.TB, base *core.Router) *core.Router {
	tb.Helper()
	var art bytes.Buffer
	if err := base.Clone().Save(&art); err != nil {
		tb.Fatal(err)
	}
	r, err := core.Load(&art)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

func samePath(a, b roadnet.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// query is one origin-destination pair of a test workload.
type query struct{ Src, Dst roadnet.VertexID }

// queries derives a deterministic OD workload from trajectories.
func queries(ts []*traj.Trajectory, n int) []query {
	var out []query
	for i := 0; len(out) < n; i++ {
		t := ts[i%len(ts)]
		out = append(out, query{Src: t.Source(), Dst: t.Destination()})
	}
	return out
}

func TestRouteMatchesDirectRouter(t *testing.T) {
	base, fresh := sharedWorld(t)
	e := NewEngine(base.Clone(), Options{CacheSize: -1}) // no cache: every answer computed
	direct := base.Clone()
	for _, q := range queries(fresh, 40) {
		got, hit := e.Route(q.Src, q.Dst)
		if hit {
			t.Fatal("cache hit with caching disabled")
		}
		want := direct.Route(q.Src, q.Dst)
		if got.Category != want.Category || got.Evidence != want.Evidence || !samePath(got.Path, want.Path) {
			t.Fatalf("engine answer differs for (%d,%d)", q.Src, q.Dst)
		}
	}
}

func TestCacheHitOnRepeat(t *testing.T) {
	base, fresh := sharedWorld(t)
	e := NewEngine(base.Clone(), Options{})
	q := queries(fresh, 1)[0]
	first, hit := e.Route(q.Src, q.Dst)
	if hit {
		t.Fatal("first query reported a cache hit")
	}
	second, hit := e.Route(q.Src, q.Dst)
	if !hit {
		t.Fatal("repeat query missed the cache")
	}
	if !samePath(first.Path, second.Path) {
		t.Fatal("cached answer differs from computed answer")
	}
	st := e.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("cache counters: hits=%d misses=%d", st.CacheHits, st.CacheMisses)
	}
	if st.Queries != 2 {
		t.Fatalf("query counter = %d", st.Queries)
	}
}

// TestIngestInvalidatesCache is the generation-bump staleness test: a
// previously cached (src, dst) answer must not survive an ingest that
// changed the underlying router — every post-ingest answer must equal
// what the new snapshot computes directly, even though the same keys
// were cached moments before.
func TestIngestInvalidatesCache(t *testing.T) {
	base, fresh := buildServeWorld(t, 43, 500)
	e := NewEngine(base, Options{CacheSize: 1 << 14})
	qs := queries(fresh, 60)

	// Warm the cache and remember the pre-ingest answers.
	before := make([]core.RouteResult, len(qs))
	for i, q := range qs {
		before[i], _ = e.Route(q.Src, q.Dst)
		if _, hit := e.Route(q.Src, q.Dst); !hit {
			t.Fatalf("query %d did not cache", i)
		}
	}

	gen := e.Generation()
	st := e.Ingest(fresh)
	if e.Generation() != gen+1 {
		t.Fatalf("generation did not bump: %d -> %d", gen, e.Generation())
	}
	if st.UpgradedEdges == 0 && st.NewEdges == 0 && len(st.TouchedEdges) == 0 {
		t.Fatal("ingest changed nothing; world too small to prove invalidation")
	}

	// Direct answers on the new snapshot are the ground truth.
	direct := e.Snapshot().Clone()
	changed := 0
	for i, q := range qs {
		got, hit := e.Route(q.Src, q.Dst)
		if hit {
			t.Fatalf("query %d served from cache right after ingest", i)
		}
		want := direct.Route(q.Src, q.Dst)
		if !samePath(got.Path, want.Path) {
			t.Fatalf("query %d: stale answer after ingest", i)
		}
		if !samePath(got.Path, before[i].Path) {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("no answer changed after ingest; staleness test has no teeth (pick another seed)")
	}

	// And the re-computed answers cache again under the new generation.
	if _, hit := e.Route(qs[0].Src, qs[0].Dst); !hit {
		t.Fatal("post-ingest answer did not re-cache")
	}
}

func TestRouteKCachesPerK(t *testing.T) {
	base, fresh := sharedWorld(t)
	e := NewEngine(base.Clone(), Options{})
	q := queries(fresh, 1)[0]
	one, _ := e.RouteK(q.Src, q.Dst, 1)
	if _, hit := e.RouteK(q.Src, q.Dst, 3); hit {
		t.Fatal("k=3 hit the k=1 cache entry")
	}
	three, hit := e.RouteK(q.Src, q.Dst, 3)
	if !hit {
		t.Fatal("k=3 repeat missed")
	}
	if !samePath(one[0].Path, three[0].Path) {
		t.Fatal("best route differs between k=1 and k=3")
	}
}

func TestPublishBumpsGeneration(t *testing.T) {
	base, _ := sharedWorld(t)
	e := NewEngine(base.Clone(), Options{})
	gen := e.Generation()
	e.Publish(base.IngestClone())
	if e.Generation() != gen+1 {
		t.Fatalf("generation after publish: %d want %d", e.Generation(), gen+1)
	}
}

// TestConcurrentQueriesAndIngest is the race-detector stress test:
// queries, alternatives and snapshot-swapping ingests interleave freely.
func TestConcurrentQueriesAndIngest(t *testing.T) {
	base, fresh := buildServeWorld(t, 47, 400)
	e := NewEngine(base, Options{CacheSize: 256})
	road := e.Snapshot().Road()
	qs := queries(fresh, 64)

	const (
		readers    = 4
		iterations = 150
	)
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				q := qs[(i*7+w*13)%len(qs)]
				if i%10 == 0 {
					res, _ := e.RouteK(q.Src, q.Dst, 3)
					for _, alt := range res {
						if len(alt.Path) >= 2 && !alt.Path.Valid(road) {
							t.Error("invalid alternative path under concurrency")
							return
						}
					}
				} else {
					res, _ := e.Route(q.Src, q.Dst)
					if len(res.Path) >= 2 && !res.Path.Valid(road) {
						t.Error("invalid path under concurrency")
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // one more reader, alternatives only
		defer wg.Done()
		for i := 0; i < 3; i++ {
			for _, q := range qs[:32] {
				res, _ := e.RouteK(q.Src, q.Dst, 3)
				for _, alt := range res {
					if len(alt.Path) >= 2 && !alt.Path.Valid(road) {
						t.Error("invalid alternative path under concurrency")
						return
					}
				}
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		chunk := len(fresh) / 4
		if chunk == 0 {
			chunk = 1
		}
		for i := 0; i+chunk <= len(fresh); i += chunk {
			e.Ingest(fresh[i : i+chunk])
		}
	}()
	wg.Wait()

	st := e.Stats()
	if st.Ingests == 0 {
		t.Fatal("no ingest completed during stress")
	}
	if st.SnapshotGeneration < 2 {
		t.Fatalf("generation = %d after ingests", st.SnapshotGeneration)
	}
	if st.Queries == 0 {
		t.Fatal("no queries recorded")
	}
}
