// Package core assembles the paper's three steps into the
// learn-to-route (L2R) system: trajectory-based region-graph
// construction (Section IV), preference learning and transfer
// (Section V), and unified routing for arbitrary (source, destination)
// pairs (Section VI). The exported l2r package at the repository root
// is a thin facade over this package; ARCHITECTURE.md at the
// repository root maps the whole pipeline.
//
// # Build and query
//
// Build runs the offline pipeline — map matching (internal/mapmatch),
// clustering (internal/cluster), region-graph construction
// (internal/region), preference learning (internal/pref), transfer
// (internal/transfer), B-edge path materialization — and returns a
// Router. Router.Route classifies a query by endpoint region
// membership (Category) and answers with the paper's Case 1/2/3
// procedure, reporting the evidence behind the answer (stored
// trajectory, learned preference, transferred preference, fastest-path
// fallback). The shortest-path primitive underneath is pluggable: see
// Options.PathBackend and internal/route.PathEngine.
//
// # One derivation
//
// Everything a router holds that is a function of its region graph's
// path sets — learned and region preferences, each edge's preference,
// B-edge paths, customized metrics — is computed by one function,
// derive (maintain.go). Build calls it on the region graph it has just
// built, Retransduce (after ConnectBFS) on one grown by ingests. derive
// reads nothing it wrote on an earlier run — it rebinds the preference
// maps and resets every edge's derived state before transducing — so a
// built router is a fixed point of Retransduce
// (TestBuildIsFixedPointOfRetransduce), and "maintained ≡ rebuilt"
// needs only the path sets to have accumulated exactly.
//
// # Learning, at build time and on ingest
//
// Every pref.Learner the package constructs — learnAll and learnRegions
// under derive, Ingest's relearn loop, EnableMultiPreferences — is
// pref.NewLearnerOn(r.eng.Fork()): its
// master-only searches run on the router's own backend (the path engine
// is therefore created before phase 2a of the build), its restricted
// searches on plain Dijkstra, and nothing it allocates outlives it.
// Ingest works on either backend, so a router restored by Load can
// ingest before EnableCH.
//
// The two paths do not learn from the same path sets. learnAll prefers
// an edge's terminal fragments — trips that start and end in exactly
// this region pair — and pools the pass-through fragments in only when
// fewer than two terminal ones exist; Ingest relearns a touched edge
// from its full path set, PathsFwd ∪ PathsRev, terminal or not. An
// edge's incrementally maintained preference can therefore differ from
// what a rebuild would learn for it; Retransduce (learnAll again, over
// everything accumulated) is what reconciles the two, and the
// maintenance convergence tests are stated against it.
//
// # Concurrency and cloning
//
// A single Router serves one goroutine. Clone forks only the path
// engine's query state (cheap, lazily allocated) for concurrent reads
// over the shared built state; DeepClone also deep-copies the mutable
// built state (region graph, preference maps) and is the
// copy-on-write primitive behind live ingestion: DeepClone → Ingest →
// atomically publish (internal/serve does exactly this); IngestClone
// is its copy-on-write form. The road network, spatial index and any
// CH topology are immutable after build and always shared.
//
// # Scratch
//
// A Router handle owns two pieces of query state, both allocated on
// its first query: the path engine fork (see internal/route: who owns
// which scratch) and the region-level search's regionScratch —
// epoch-stamped visit marks, parent links and a heap that is Reset
// rather than reallocated, with the same clear-on-uint32-wrap rule as
// the engines. Clone, DeepClone and IngestClone all begin with a
// struct copy, so each must drop the scratch pointer and fork the
// engine, or two handles would search in one state; a new field of
// this kind needs the same line in all three. Nothing a caller
// receives aliases scratch: the region path is counted and copied out
// at exact size, road paths are the engine's fresh copies (or stored
// paths of the immutable region graph), and a Case-2 answer is
// assembled as ps + road + pd in one allocation of its own. There is
// no memo of region paths or routes here; caching is the serving
// layer's job.
//
// # Persistence
//
// Save/Load round-trip a built router as a checksummed artifact
// (internal/codec) so the minutes-to-hours offline build is paid once
// per deployment. Artifacts carry ArtifactMeta — a name, a
// build-options summary (BuildInfo) and a save generation that
// advances on every Save — which the multi-tenant serving layer
// (internal/serve.Fleet) uses to identify and hot-reload tenants.
package core
