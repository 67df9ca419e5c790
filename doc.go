// Package repro is the repository root of learn2route, a Go
// reproduction of "Learning to Route with Sparse Trajectory Sets"
// (Guo, Yang, Hu, Jensen — IEEE ICDE 2018).
//
// The public API lives in the l2r package; the paper's pipeline and all
// substrates live under internal/. The root package exists to host the
// benchmark suite (bench_test.go), which regenerates every table and
// figure of the paper's evaluation; see ARCHITECTURE.md for how the
// pipeline maps to packages and ROADMAP.md item 1 for the measured
// comparison with the paper's baselines.
//
// # Where to read
//
// ARCHITECTURE.md maps the paper's three offline steps and the online
// serving layer to packages, with the data flow and the
// concurrency/snapshot contract in one place. Every internal package
// carries a doc.go; the load-bearing ones are internal/core (pipeline
// assembly, unified routing, persistence), internal/serve (snapshot
// swapping, cache, coalescing, fleet), internal/route (the PathEngine
// seam), internal/region (the mutable region graph) and internal/pref
// (the preference model). examples/README.md indexes the runnable
// examples.
//
// # Serving
//
// Beyond the offline pipeline, internal/serve (re-exported as
// l2r.Engine) serves a built router to concurrent traffic: lock-free
// snapshot reads, copy-on-write live ingestion, a sharded LRU route
// cache with generation-based invalidation that also coalesces
// concurrent duplicate queries, and serving metrics. cmd/l2rserve
// wraps it in an HTTP server:
//
//	go run ./cmd/l2rserve -net tiny -trips 400 &
//	curl 'localhost:8080/route?src=1&dst=50'
//	curl -X POST localhost:8080/ingest -d '{"paths":[[1,2,3]]}'
//	curl localhost:8080/stats
//
// # Multi-tenant fleets
//
// The paper builds one region graph per city, so production runs many
// routers. l2r.Fleet (internal/serve.Fleet) hosts one named engine per
// world behind tenant-addressed HTTP routes, and a fleet watcher
// hot-reloads artifacts from a directory — a rebuilt *.l2r dropped in
// is atomically swapped into the live fleet without dropping in-flight
// queries:
//
//	go run ./cmd/l2rserve -artifact-dir artifacts/ &
//	curl 'localhost:8080/t/acity/route?src=1&dst=50'
//	curl localhost:8080/tenants
//	curl localhost:8080/stats
//
// Streaming ingestion, the quality observer and background maintenance
// ride on an engine through one seam (serve.Engine.Attach, and the
// engine's Close stops them; for every tenant of a fleet,
// Fleet.Attach). See examples/fleet for the full walkthrough.
//
// # Architecture: the PathEngine seam
//
// The preference learner, the baselines, the trajectory simulator and
// the experiment harness program against internal/route.PathEngine, a
// pluggable backend. route.Engine is plain Dijkstra (plus the paper's
// Algorithm 2); route.CHEngine answers scalar, preference-constrained
// and custom-cost searches on one customizable contraction hierarchy
// (internal/ch), one customized metric per cost function, shortcuts
// unpacked. Every Router runs on a CHEngine — unified routing (Case 2
// approach searches, fastest fallbacks, connector stitching), learning
// and serving alike: Build contracts the hierarchy, Load derives it
// from the contraction order the artifact carries.
//
// The concurrency contract: an engine serves one goroutine; Fork()
// returns a sibling sharing the immutable built state (road network,
// CH hierarchy) with fresh, lazily allocated query state. Router.Clone
// and the serve snapshot pools fork instead of allocating per-vertex
// search arrays per clone, and the hierarchy built once at Build (or
// Load) time is carried through Clone and IngestClone, the
// copy-on-write ingest swap.
//
// # Verifying
//
// The tier-1 check is:
//
//	go build ./... && go test ./...
//
// with go test -race ./internal/serve/ covering the concurrent
// query/ingest paths. Performance is judged by the benchmark
// BENCHMARK.json declares: bash benchmark/run.sh --workload <name>.
package repro
