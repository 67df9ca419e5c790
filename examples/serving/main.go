// Serving: run the online serving engine under concurrent load while
// trajectories stream in — the deployment shape the offline pipeline
// exists for. The example builds a router from three weeks of simulated
// traffic, wraps it in a serve engine, then fires skewed query traffic
// from several goroutines while the final week of trajectories is
// ingested in batches; ingestion never blocks a query because each
// batch lands in a copy-on-write clone of the served router
// (Router.IngestClone) that is atomically swapped in.
//
//	go run ./examples/serving
package main

import (
	"fmt"
	"log"
	"sort"
	"sync"

	"repro/internal/roadnet"
	"repro/internal/traj"
	"repro/l2r"
)

func main() {
	road := roadnet.Generate(roadnet.N2Like(7))
	cfg := traj.D2Like(7, 2000)
	trips := traj.NewSimulator(road, cfg).Run()
	sort.Slice(trips, func(i, j int) bool { return trips[i].Depart < trips[j].Depart })
	train, live := traj.Split(trips, 0.75*cfg.HorizonSec)

	router, err := l2r.Build(road, train, l2r.Options{SkipMapMatching: true})
	if err != nil {
		log.Fatal(err)
	}
	st := router.Stats()
	fmt.Printf("built from %d trips: %d regions, %d T-edges, %d B-edges\n",
		len(train), st.Regions, st.TEdges, st.BEdges)

	engine := l2r.NewEngine(router, l2r.ServeOptions{CacheSize: 8192})

	// Query workload: the test trips' OD pairs, revisited many times —
	// hot pairs dominate, as in real road traffic.
	type od struct{ src, dst roadnet.VertexID }
	var reqs []od
	for _, t := range live {
		reqs = append(reqs, od{t.Source(), t.Destination()})
	}

	var wg sync.WaitGroup
	const readers = 4
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				// Skew: the first few OD pairs soak up most traffic.
				idx := (i * (w + 3)) % len(reqs)
				if i%4 != 0 {
					idx %= 8
				}
				q := reqs[idx]
				engine.Route(q.src, q.dst)
			}
		}(w)
	}

	// Meanwhile, ingest the live trajectories in four batches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		chunk := (len(live) + 3) / 4
		for i := 0; i < len(live); i += chunk {
			end := i + chunk
			if end > len(live) {
				end = len(live)
			}
			is := engine.Ingest(live[i:end])
			fmt.Printf("ingested %3d trips -> generation %d (%d edges touched, %d upgraded B->T)\n",
				end-i, engine.Generation(), len(is.TouchedEdges), is.UpgradedEdges)
		}
	}()
	wg.Wait()

	// One warm pass at the end: everything hot should hit the cache.
	for _, q := range reqs[:min(64, len(reqs))] {
		engine.Route(q.src, q.dst)
	}

	s := engine.Stats()
	fmt.Printf("\nserved %d queries at %.0f qps\n", s.Queries, s.QPS)
	fmt.Printf("cache: %.1f%% hit rate (%d hits / %d misses, %d entries)\n",
		100*s.CacheHitRate, s.CacheHits, s.CacheMisses, s.CacheEntries)
	fmt.Printf("latency: p50 %v, p95 %v, p99 %v\n", s.Latency.P50, s.Latency.P95, s.Latency.P99)
	for cat, cs := range s.PerCategory {
		fmt.Printf("  %-12s %6d queries, p95 %v\n", cat, cs.Queries, cs.P95)
	}
	fmt.Printf("snapshot generation %d after %d ingests (%d trajectories, last ingest took %v)\n",
		s.SnapshotGeneration, s.Ingests, s.IngestedTrajectories, s.IngestLag)
}
