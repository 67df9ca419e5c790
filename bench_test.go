// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus ablation benches for the design choices
// ARCHITECTURE.md describes. Each benchmark regenerates its table/figure once
// (visible with -v via b.Log) and measures the computational kernel that
// produces it.
//
//	go test -bench=. -benchmem
//
// The benches run on a compact D2-like world built once per process; the
// full-scale numbers come from cmd/l2rexp -scale full (ROADMAP.md item 1
// is where they are tabulated against the baselines).
package repro_test

import (
	"bytes"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/ch"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/exp"
	"repro/internal/geo"
	"repro/internal/mapmatch"
	"repro/internal/pref"
	"repro/internal/region"
	"repro/internal/roadnet"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/spatial"
	"repro/internal/splice"
	"repro/internal/stream"
	"repro/internal/traj"
	"repro/internal/transfer"
	"repro/internal/worldgen"
)

// benchIndex and benchMatcher build the spatial index and map matcher
// for the bench world.
func benchIndex(w *exp.World) *spatial.Index {
	return spatial.NewIndex(w.Road, 300)
}

func benchMatcher(w *exp.World, idx *spatial.Index) *mapmatch.Matcher {
	return mapmatch.NewMatcher(w.Road, idx, mapmatch.Config{SigmaM: 15})
}

// benchSeed is the single seed every bench-world input derives from —
// road network, trajectory simulation and the Zipf query mixes below.
// One constant means one knob: a `-bench` run is reproducible, and
// two runs of it measure the same world.
const benchSeed = 5

var (
	worldOnce sync.Once
	benchW    *exp.World
)

// benchWorld lazily builds the shared compact world through
// internal/worldgen. The "bench" scale reproduces the historical
// hand-rolled world (roadnet.Tiny + D2-like 600-trip feed) exactly,
// so numbers recorded in CHANGES.md over the PRs stay comparable.
func benchWorld(b testing.TB) *exp.World {
	b.Helper()
	worldOnce.Do(func() {
		w := worldgen.Build(worldgen.MustScale(worldgen.ScaleBench, benchSeed))
		benchW = exp.NewPrebuilt("bench", w.Road, w.Sim, w.All, w.Train, w.Test,
			[]float64{1, 2, 4, 10}, exp.Config{Seed: benchSeed})
	})
	return benchW
}

// --- Table II ------------------------------------------------------------

func BenchmarkTableII(b *testing.B) {
	w := benchWorld(b)
	b.Log(exp.TableII(w))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traj.DistanceHistogram(w.Road, w.All, w.BucketsKm)
	}
}

// --- Table IV ------------------------------------------------------------

func BenchmarkTableIV(b *testing.B) {
	w := benchWorld(b)
	w.MustRouter()
	b.Log(exp.TableIV(w))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.TableIVData(w, []float64{2, 5, 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 6(a): preference learning --------------------------------------

func BenchmarkFig6a(b *testing.B) {
	w := benchWorld(b)
	r := w.MustRouter()
	b.Log(exp.Fig6a(w))
	// Kernel: learning one T-edge's preference from its path set.
	var paths []roadnet.Path
	rg := r.RegionGraph()
	for _, e := range rg.Edges {
		if e.Kind == region.TEdge && len(e.PathsFwd) > 0 {
			for _, pi := range e.PathsFwd {
				paths = append(paths, pi.Path)
			}
			break
		}
	}
	if len(paths) == 0 {
		b.Skip("no T-edge path sets")
	}
	learner := pref.NewLearner(w.Road)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		learner.Learn(paths)
	}
}

// --- Fig. 6(b): region-edge similarity -----------------------------------

func BenchmarkFig6b(b *testing.B) {
	w := benchWorld(b)
	r := w.MustRouter()
	b.Log(exp.Fig6b(w))
	rg := r.RegionGraph()
	if len(rg.Edges) < 2 {
		b.Skip("not enough region edges")
	}
	fa := transfer.EdgeFeatures(rg, rg.Edges[0])
	fb := transfer.EdgeFeatures(rg, rg.Edges[1])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		transfer.ReSim(fa, fb)
	}
}

// --- Fig. 9(a)/(b): preference transfer ----------------------------------

func BenchmarkFig9a(b *testing.B) {
	w := benchWorld(b)
	w.MustRouter()
	b.Log(exp.Fig9a(w))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig9aCompute(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9b(b *testing.B) {
	w := benchWorld(b)
	w.MustRouter()
	b.Log(exp.Fig9b(w))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig9bCompute(w); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 10/11: accuracy ------------------------------------------------

// benchQueries returns the evaluation queries of the bench world.
func benchQueries(b testing.TB) []eval.Query {
	w := benchWorld(b)
	r := w.MustRouter()
	qs := eval.QueriesFrom(w.Road, r, w.Test)
	if len(qs) == 0 {
		b.Skip("no queries")
	}
	return qs
}

func BenchmarkFig10(b *testing.B) {
	w := benchWorld(b)
	b.Log(exp.Fig10(w))
	r := w.MustRouter()
	qs := benchQueries(b)
	alg := eval.WrapL2R(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		path := alg.Route(q.Query)
		pref.SimEq1(w.Road, q.GT, path)
	}
}

func BenchmarkFig11(b *testing.B) {
	w := benchWorld(b)
	b.Log(exp.Fig11(w))
	r := w.MustRouter()
	qs := benchQueries(b)
	alg := eval.WrapL2R(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		path := alg.Route(q.Query)
		pref.SimEq4(w.Road, q.GT, path)
	}
}

// --- Fig. 12: online run time, one sub-bench per algorithm ----------------

func BenchmarkFig12(b *testing.B) {
	w := benchWorld(b)
	b.Log(exp.Fig12(w))
	r := w.MustRouter()
	qs := benchQueries(b)
	algs := []eval.Algorithm{
		eval.WrapL2R(r),
		baseline.NewShortest(w.Road),
		baseline.NewFastest(w.Road),
		baseline.NewDom(w.Road, w.Train, 3),
		baseline.NewTRIP(w.Road, w.Train),
	}
	for _, alg := range algs {
		alg := alg
		b.Run(alg.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				alg.Route(qs[i%len(qs)].Query)
			}
		})
	}
}

// --- Fig. 13: web-service comparison --------------------------------------

func BenchmarkFig13(b *testing.B) {
	w := benchWorld(b)
	b.Log(exp.Fig13(w))
	qs := benchQueries(b)
	ws := baseline.NewWebService(w.Road)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		wps := ws.Directions(q.S, q.D)
		geo.MatchBand(q.GT.Polyline(w.Road), wps, 10)
	}
}

// --- Offline phase --------------------------------------------------------

func BenchmarkOffline(b *testing.B) {
	w := benchWorld(b)
	b.Log(exp.Offline(w))
	// Kernel: the clustering + region-graph phase over the training
	// paths (the full build is benchmarked end to end by the ablations
	// below at smaller scale).
	paths := make([]roadnet.Path, 0, len(w.Train))
	for _, t := range w.Train {
		paths = append(paths, t.Truth)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tg := cluster.BuildTrajectoryGraph(w.Road, paths)
		regions := cluster.Cluster(tg)
		rg := region.Build(w.Road, regions, paths, region.Options{})
		rg.ConnectBFS()
	}
}

// --- Ablations -------------------------------------------------------------

// BenchmarkAblationAMR sweeps the adjacency-matrix reduction threshold,
// reporting the surviving similarity-graph edge count (the density the
// paper's Fig. 9(b) trades accuracy and run time over).
func BenchmarkAblationAMR(b *testing.B) {
	w := benchWorld(b)
	r := w.MustRouter()
	rg := r.RegionGraph()
	ids := make([]int, 0, len(rg.Edges))
	for _, e := range rg.Edges {
		ids = append(ids, int(e.ID))
	}
	if len(ids) > 400 {
		ids = ids[:400]
	}
	for _, amr := range []float64{0.5, 0.7, 0.9} {
		amr := amr
		b.Run(name(amr), func(b *testing.B) {
			var density int
			for i := 0; i < b.N; i++ {
				density = transfer.AdjacencyDensity(rg, ids, amr)
			}
			b.ReportMetric(float64(density), "simgraph-edges")
		})
	}
}

func name(amr float64) string {
	switch amr {
	case 0.5:
		return "amr0.5"
	case 0.7:
		return "amr0.7"
	default:
		return "amr0.9"
	}
}

// BenchmarkAblationLearnerSampleCap measures preference-learning cost
// versus the per-T-edge path-sample cap (the MaxPaths knob).
func BenchmarkAblationLearnerSampleCap(b *testing.B) {
	w := benchWorld(b)
	r := w.MustRouter()
	rg := r.RegionGraph()
	var paths []roadnet.Path
	for _, e := range rg.Edges {
		if e.Kind != region.TEdge {
			continue
		}
		for _, pi := range e.PathsFwd {
			paths = append(paths, pi.Path)
		}
		if len(paths) >= 24 {
			break
		}
	}
	if len(paths) < 8 {
		b.Skip("not enough paths")
	}
	for _, cap := range []int{2, 8, 24} {
		cap := cap
		b.Run(capName(cap), func(b *testing.B) {
			l := pref.NewLearner(w.Road)
			l.MaxPaths = cap
			for i := 0; i < b.N; i++ {
				l.Learn(paths)
			}
		})
	}
}

func capName(c int) string {
	switch c {
	case 2:
		return "cap2"
	case 8:
		return "cap8"
	default:
		return "cap24"
	}
}

// BenchmarkMapMatch measures the HMM map matcher on simulated feeds.
func BenchmarkMapMatch(b *testing.B) {
	w := benchWorld(b)
	idx := benchIndex(w)
	m := benchMatcher(w, idx)
	var pts [][]geo.Point
	for _, t := range w.Train[:min(40, len(w.Train))] {
		ps := make([]geo.Point, len(t.Records))
		for i, rec := range t.Records {
			ps[i] = rec.P
		}
		pts = append(pts, ps)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(pts[i%len(pts)])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// --- Extension benches -------------------------------------------------------

// BenchmarkAblationCH compares contraction-hierarchy queries against
// plain Dijkstra on the bench world (the paper's deferred speed-up).
func BenchmarkAblationCH(b *testing.B) {
	w := benchWorld(b)
	b.Log(exp.CHSpeedup(w))
	che := route.BuildCHEngine(w.Road, roadnet.TT, ch.Config{})
	eng := route.NewEngine(w.Road)
	qs := benchQueries(b)
	b.Run("CH", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := qs[i%len(qs)]
			che.Route(p.S, p.D, roadnet.TT)
		}
	})
	b.Run("Dijkstra", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := qs[i%len(qs)]
			eng.Route(p.S, p.D, roadnet.TT)
		}
	})
}

// BenchmarkAblationClusteringMethod compares the paper's clustering
// against the two related-work methods of Section II.
func BenchmarkAblationClusteringMethod(b *testing.B) {
	w := benchWorld(b)
	b.Log(exp.AblationClustering(w))
	paths := make([]roadnet.Path, 0, len(w.Train))
	for _, t := range w.Train {
		paths = append(paths, t.Truth)
	}
	b.Run("Modularity", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tg := cluster.BuildTrajectoryGraph(w.Road, paths)
			cluster.Cluster(tg)
		}
	})
	b.Run("Grid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cluster.GridCluster(w.Road, paths)
		}
	})
	b.Run("Hierarchy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cluster.HierarchyPartition(w.Road, paths)
		}
	})
}

// BenchmarkSplice measures the Case-1/2 splicing baseline and logs the
// coverage analysis that motivates Case 3.
func BenchmarkSplice(b *testing.B) {
	w := benchWorld(b)
	b.Log(exp.CaseCoverage(w))
	mpr := splice.NewMPR(w.Road, w.Train)
	qs := benchQueries(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mpr.Route(qs[i%len(qs)].Query)
	}
}

// BenchmarkPersistence measures router save/load round trips — the
// artifact path a deployment takes instead of re-running the offline
// build.
func BenchmarkPersistence(b *testing.B) {
	w := benchWorld(b)
	r := w.MustRouter()
	var size int
	b.Run("Save", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := r.Save(&buf); err != nil {
				b.Fatal(err)
			}
			size = buf.Len()
		}
		b.ReportMetric(float64(size), "bytes")
	})
	var artifact bytes.Buffer
	if err := r.Save(&artifact); err != nil {
		b.Fatal(err)
	}
	raw := artifact.Bytes()
	b.Run("Load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Load(bytes.NewReader(raw)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIngest measures incremental trajectory ingestion throughput.
func BenchmarkIngest(b *testing.B) {
	w := benchWorld(b)
	r := w.MustRouter()
	batch := w.Test
	if len(batch) > 50 {
		batch = batch[:50]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// IngestClone, not Clone: Ingest mutates the region graph, which
		// a Clone shares with the cached benchmark router — later
		// benchmarks would measure a polluted world.
		clone := r.IngestClone()
		b.StartTimer()
		clone.Ingest(batch, core.IngestOptions{SkipMapMatching: true})
	}
}

// --- PathEngine backends ---------------------------------------------------

// BenchmarkFastestDijkstra measures uncached scalar fastest-path
// queries on the plain Dijkstra PathEngine — the primitive behind
// Case 2 approach searches, fastest fallbacks and null-preference
// connectors on the serving hot path.
func BenchmarkFastestDijkstra(b *testing.B) {
	w := benchWorld(b)
	qs := benchQueries(b)
	var eng route.PathEngine = route.NewEngine(w.Road)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		eng.Fastest(q.S, q.D)
	}
}

// BenchmarkFastestCH measures the same uncached queries on the
// CH-backed PathEngine (hierarchy preprocessed outside the timer,
// shortcut unpacking included). The ratio to BenchmarkFastestDijkstra
// is the speed-up the serving layer gains per uncached fastest-path
// search on the hierarchy.
func BenchmarkFastestCH(b *testing.B) {
	w := benchWorld(b)
	qs := benchQueries(b)
	var eng route.PathEngine = route.BuildCHEngine(w.Road, roadnet.TT, ch.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		eng.Fastest(q.S, q.D)
	}
}

// BenchmarkServe measures online serving throughput on a Zipf-skewed
// query mix — the scale-free popularity profile of real road traffic,
// where a few hot OD pairs dominate. Three configurations:
//
//   - RouterDirect: the uncached single-caller core.Router.Route every
//     pre-serving caller used — the baseline the serving subsystem must
//     beat.
//   - EngineColdCache: the serve engine with caching disabled, queried
//     concurrently (measures snapshot/clone-pool overhead plus
//     parallel speed-up).
//   - EngineWarmCache: the serve engine with its route cache warm on
//     the same Zipf mix — the steady state of a hot serving shard.
func BenchmarkServe(b *testing.B) {
	w := benchWorld(b)
	r := w.MustRouter()
	qs := benchQueries(b)

	// Pre-draw a deterministic Zipf-ranked index stream: rank 0 (the
	// hottest OD pair) is geometrically more popular than rank 1, etc.
	rng := rand.New(rand.NewSource(benchSeed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(qs)-1))
	mix := make([]int, 8192)
	for i := range mix {
		mix[i] = int(zipf.Uint64())
	}

	b.Run("RouterDirect", func(b *testing.B) {
		single := r.Clone()
		for i := 0; i < b.N; i++ {
			q := qs[mix[i%len(mix)]]
			single.Route(q.S, q.D)
		}
	})

	b.Run("EngineColdCache", func(b *testing.B) {
		e := serve.NewEngine(r.IngestClone(), serve.Options{CacheSize: -1})
		var next int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := int(atomic.AddInt64(&next, 1))
				q := qs[mix[i%len(mix)]]
				e.Route(q.S, q.D)
			}
		})
	})

	// Coalescing: duplicate-heavy traffic hitting *cold* keys — a herd
	// of parallel goroutines walks the query list in windows of 64, so
	// every fresh OD pair is requested by many goroutines at once
	// before any cache entry exists. The computes/od metric is the
	// collapse: ~1 route computation per unique OD, the cache's
	// coalescing absorbing the herd.
	b.Run("EngineColdHerdCoalesce", func(b *testing.B) {
		e := serve.NewEngine(r.IngestClone(), serve.Options{CacheSize: 1 << 16})
		var next int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := int(atomic.AddInt64(&next, 1)) - 1
				q := qs[(i/64)%len(qs)]
				e.Route(q.S, q.D)
			}
		})
		b.StopTimer()
		uniques := (b.N + 63) / 64
		if uniques > len(qs) {
			uniques = len(qs)
		}
		st := e.Stats()
		b.ReportMetric(float64(st.RouteComputations)/float64(uniques), "computes/od")
		b.ReportMetric(float64(st.CoalescedQueries), "coalesced")
	})

	b.Run("EngineWarmCache", func(b *testing.B) {
		e := serve.NewEngine(r.IngestClone(), serve.Options{CacheSize: 1 << 15})
		for _, i := range mix {
			e.Route(qs[i].S, qs[i].D)
		}
		warm := e.Stats() // exclude warm-up misses from the reported rate
		b.ResetTimer()
		var next int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := int(atomic.AddInt64(&next, 1))
				q := qs[mix[i%len(mix)]]
				e.Route(q.S, q.D)
			}
		})
		b.StopTimer()
		st := e.Stats()
		hits := st.CacheHits - warm.CacheHits
		if total := hits + st.CacheMisses - warm.CacheMisses; total > 0 {
			b.ReportMetric(100*float64(hits)/float64(total), "hit%")
		}
	})
}

// BenchmarkFleet measures multi-tenant serving: the per-query cost of
// tenant lookup + engine dispatch with several worlds behind one
// registry, and the hot-swap (Publish) that replaces one tenant's
// artifact under traffic.
func BenchmarkFleet(b *testing.B) {
	w := benchWorld(b)
	r := w.MustRouter()
	qs := benchQueries(b)
	tenants := []string{"acity", "bcity", "ccity"}

	newFleet := func(b *testing.B) *serve.Fleet {
		f := serve.NewFleet(serve.Options{CacheSize: 1 << 14})
		for _, name := range tenants {
			if _, err := f.Add(name, r.IngestClone()); err != nil {
				b.Fatal(err)
			}
		}
		return f
	}

	b.Run("RouteAcrossTenants", func(b *testing.B) {
		f := newFleet(b)
		var next int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := int(atomic.AddInt64(&next, 1))
				e, ok := f.Get(tenants[i%len(tenants)])
				if !ok {
					b.Error("tenant lookup failed")
					return
				}
				q := qs[i%len(qs)]
				e.Route(q.S, q.D)
			}
		})
	})

	b.Run("HotSwapUnderTraffic", func(b *testing.B) {
		f := newFleet(b)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					e, _ := f.Get(tenants[g%len(tenants)])
					q := qs[(i*13+g)%len(qs)]
					e.Route(q.S, q.D)
				}
			}(g)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.Publish("acity", r.IngestClone()); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
	})
}

// BenchmarkStream measures the streaming GPS ingestion pipeline end
// to end — sessionization, windowed online map matching and adaptive
// batching into a live engine — against the one-swap-per-trajectory
// ingestion the HTTP /ingest path performs at equal trajectory
// volume. The swaps/traj metric is the amortization: the pipeline
// batches MaxBatch trajectories per copy-on-write snapshot swap
// (~1/32 here), where per-trajectory ingestion reports 1.
func BenchmarkStream(b *testing.B) {
	w := benchWorld(b)
	r := w.MustRouter()
	live := w.Test
	if len(live) > 120 {
		live = live[:120]
	}
	pts := stream.PointsFrom(live)

	b.Run("Pipeline", func(b *testing.B) {
		var swaps, trajs, points float64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e := serve.NewEngine(r.IngestClone(), serve.Options{CacheSize: -1})
			b.StartTimer()
			ing := stream.Attach(e, stream.Config{
				Match:    mapmatch.Config{SigmaM: 15},
				MaxBatch: 32,
				FlushAge: time.Hour, // count-driven; Close drains the tail
			})
			ing.PushAll(pts)
			ing.Close()
			b.StopTimer()
			st := e.Stats()
			swaps += float64(st.Ingests)
			trajs += float64(st.IngestedTrajectories)
			points += float64(len(pts))
			b.StartTimer()
		}
		b.StopTimer()
		if trajs > 0 {
			b.ReportMetric(swaps/trajs, "swaps/traj")
			b.ReportMetric(points/trajs, "points/traj")
		}
	})

	b.Run("PerTrajectorySwap", func(b *testing.B) {
		// The /ingest baseline: every trajectory pays its own deep-clone
		// snapshot swap (paths pre-matched, so only the swap differs).
		b.StopTimer()
		e := serve.NewEngine(r.IngestClone(), serve.Options{CacheSize: -1})
		b.StartTimer()
		for i := 0; i < b.N; i++ {
			e.IngestMatched(live[i%len(live) : i%len(live)+1])
		}
		b.StopTimer()
		st := e.Stats()
		b.ReportMetric(float64(st.Ingests)/float64(st.IngestedTrajectories), "swaps/traj")
	})
}

// BenchmarkServeIngest measures the copy-on-write ingest swap — the
// price of keeping the served router current without blocking queries.
func BenchmarkServeIngest(b *testing.B) {
	w := benchWorld(b)
	r := w.MustRouter()
	batch := w.Test
	if len(batch) > 50 {
		batch = batch[:50]
	}
	e := serve.NewEngine(r.IngestClone(), serve.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Match BenchmarkIngest: measure the clone-and-swap itself, not
		// re-map-matching the batch.
		e.IngestMatched(batch)
	}
}

// --- Customizable CH: re-customization and swap cost -----------------------

// BenchmarkCustomize measures the two phases of the customizable
// hierarchy separately: the one-time metric-independent contraction
// (Contract) and the per-metric weight pass over the fixed skeleton
// (Customize). Their ratio is why the serving swap path re-customizes
// instead of re-contracting: a metric refresh costs one bottom-up
// triangle sweep over preallocated flat arrays. Customize/One is one
// metric's sweep on the bench world; internal/core's BenchmarkCustomize
// times what Load customizes on the ci router.
func BenchmarkCustomize(b *testing.B) {
	w := benchWorld(b)
	b.Run("Contract", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ch.BuildTopology(w.Road)
		}
	})
	b.Run("Customize", func(b *testing.B) {
		b.Run("One", func(b *testing.B) {
			topo := ch.BuildTopology(w.Road)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				topo.Customize(func(e roadnet.EdgeID) float64 { return w.Road.EdgeWeight(e, roadnet.TT) })
			}
			b.ReportMetric(float64(topo.NumArcs()), "arcs")
		})
	})
}

// BenchmarkSwapCost measures the per-ingest snapshot swap overhead —
// everything serve.Engine.ingestDurable does to turn a batch into a
// servable generation beyond applying the batch itself: the
// copy-on-write clone (IngestClone, outer slice headers only) plus
// re-customization of whatever CH metrics the batch's re-learned
// preferences introduced. Applying the batch (Ingest) runs outside the
// timer.
func BenchmarkSwapCost(b *testing.B) {
	w := benchWorld(b)
	r := w.MustRouter().IngestClone()
	batch := w.Test
	if len(batch) > 20 {
		batch = batch[:20]
	}
	// The swap phases are timed manually and reported as the override
	// ns/op (StopTimer/StartTimer around the untimed Ingest would cost
	// more in ReadMemStats than the phases being measured).
	opt := core.IngestOptions{SkipMapMatching: true}
	b.Run("Recustomize", func(b *testing.B) {
		var swap time.Duration
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			next := r.IngestClone()
			swap += time.Since(t0)
			st := next.Ingest(batch, opt)
			t1 := time.Now()
			next.PrepareMetricsTouched(st.TouchedEdges)
			swap += time.Since(t1)
		}
		b.ReportMetric(float64(swap.Nanoseconds())/float64(b.N), "ns/op")
	})
}

// BenchmarkRouteP99 measures end-to-end route latency on the CH-backed
// router and reports the tail (p99-ns) alongside the mean — the number
// the CI regression guard tracks, since customization regressions that
// push cold metrics inline show up in the tail first.
func BenchmarkRouteP99(b *testing.B) {
	w := benchWorld(b)
	single := w.MustRouter().Clone()
	qs := benchQueries(b)
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		t0 := time.Now()
		single.Route(q.S, q.D)
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if len(lat) > 0 {
		b.ReportMetric(float64(lat[len(lat)*99/100]), "p99-ns")
	}
}

// BenchmarkRoutePrefCH measures preference-restricted queries
// (RoutePref, the Algorithm 2 hot path) on the hierarchy versus plain
// Dijkstra. The CH variant resolves the slave predicate to a road-type
// mask and queries a pre-customized metric; allocs/op verifies the
// per-fork scratch reuse — steady state allocates only the returned
// path.
func BenchmarkRoutePrefCH(b *testing.B) {
	w := benchWorld(b)
	qs := benchQueries(b)
	master := roadnet.TT
	slave := func(t roadnet.RoadType) bool { return t != roadnet.Motorway }
	che := route.BuildCHEngine(w.Road, master, ch.Config{})
	dij := route.NewEngine(w.Road)
	b.Run("CH", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			che.RoutePref(q.S, q.D, master, slave)
		}
	})
	b.Run("Dijkstra", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			dij.RoutePref(q.S, q.D, master, slave)
		}
	})
}

// BenchmarkAblationMu sweeps the Eq. 2 hyper-parameters.
func BenchmarkAblationMu(b *testing.B) {
	w := benchWorld(b)
	w.MustRouter()
	b.Log(exp.AblationMu(w))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationMuCompute(w); err != nil {
			b.Skip(err)
		}
	}
}
