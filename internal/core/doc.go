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
// the paper's modularity clustering (internal/cluster), region-graph
// construction (internal/region), preference learning (internal/pref),
// transfer (internal/transfer), B-edge path materialization — and
// returns a Router; BuildWithRegions runs it over a partition the
// caller chose instead. Router.Route classifies a query by endpoint region
// membership (Category) and answers with the paper's Case 1/2/3
// procedure, reporting the evidence behind the answer (stored
// trajectory, learned preference, transferred preference, fastest-path
// fallback). Every shortest path underneath is a query on the router's
// customizable contraction hierarchy (route.CHEngine): Build contracts
// it before learning, Load derives it from the order the artifact
// carries, and every clone shares it.
//
// # One derivation
//
// Everything a router holds that is a function of its region graph's
// path sets — learned and region preferences, each edge's preference,
// B-edge paths, customized metrics — is computed by one function,
// derive (maintain.go). Build calls it on the region graph it has just
// built, Retransduce (after ConnectBFS) on one grown by ingests; like
// Ingest, it takes the learner's path-sample cap from the build
// metadata, so the cap has one source. derive reads nothing it wrote
// on an earlier run — it rebinds the region preferences and resets
// every edge's fit and derived state before transducing — so a built
// router is a fixed point of Retransduce
// (TestBuildIsFixedPointOfRetransduce), and "maintained ≡ rebuilt"
// needs only the path sets to have accumulated exactly. They do by
// construction: batch is stream run to completion. Build and Ingest
// turn trajectories into evidence through one helper (matchedPaths:
// t.Matched is the truth or the matcher's path, and a path is usable
// from two vertices up), mapmatch.Matcher.Match is the online decoder
// closed after the last point, and region.Build is region.AddPaths on
// an empty partition skeleton — the loop every later Ingest runs.
//
// # Learning, at build time and on ingest
//
// Every pref.Learner the package constructs runs on a fork of r.eng,
// so its searches run on the router's own hierarchy (which is
// therefore contracted before phase 2a of the build). derive learns on
// forks of one route.CHEngine.PassFork, Ingest on plain forks (package
// pref, "Engines", has the residency rules). Ingest takes a learner
// from the router's sync.Pool, which setEngine starts with each new
// engine (finishBuild, Load) and every clone shares: consecutive
// ingests reuse one learner's scratch, concurrent ones each get their
// own, and idle ones are garbage. The pool's learners share one pref.Memo, which setEngine
// starts empty beside the pool, so a ground truth one ingest of the
// lineage scored is not searched for again by a later ingest or a
// sibling clone's (package pref, "Memo rule").
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
// A single Router serves one goroutine. There are two ways to copy one,
// and the second starts from the first, so a new per-handle field is
// one line in one place:
//
//   - Clone is another reader of the same model: a struct copy with the
//     path engine forked and the scratch dropped. It shares everything
//     built — region graph, preference maps — and the lineage's learner
//     pool and memo, and owns only query state. It must not be written
//     through.
//   - IngestClone is the next writer's generation. It is a Clone whose
//     region graph is region.Graph.CloneCOW: outer slice headers
//     copied, every edge, path set and per-region list shared until a
//     write privatizes exactly that piece.
//
// The contract, once: writes through an IngestClone never reach memory
// its parent (or the parent's Clones) can see, and the parent is not
// mutated while a clone of it is alive — the serving layer's generation
// discipline, IngestClone → write → atomically publish, after which the
// previous generation only serves reads. Every mutator keeps the first
// half, for one of three reasons:
//
//   - Privatize-on-write for edges. Ingest (region.AddPaths, then the
//     relearn loop) and derive under Retransduce reach an edge only
//     through region.Graph.EdgeForUpdate, which copies the edge — its
//     kind, its applied preference, its path lists and its fit — before
//     the first write. A T-edge's fitted preference (what
//     LearnedPreference returns: preference, training similarity, paths
//     used) is stored on the region.Edge itself, beside the Pref/HasPref
//     routing applies, so the bitset that guards the edge guards the fit
//     and there is no second store with a copy discipline of its own.
//   - Rebind, never patch, for the maps. derive assigns a fresh
//     regionPrefs; nothing inserts into a map the parent also holds.
//     PrepareMetrics* only adds metric versions to the CH table behind
//     its atomically swapped map, which readers of the previous table
//     never see. The lineage memo is the one structure every
//     generation writes into: it is safe for concurrent use, and what
//     it holds is a function of the immutable road network and a
//     ground-truth path, so no generation's fits depend on which
//     generation wrote it. setEngine resets it with the pool, and it is
//     never persisted.
//   - Own copy for meta and stats. They are plain values in the struct
//     copy, so SetName, SetGeneration, Save's generation stamp and the
//     Stats refresh stay on the clone.
//
// The road network, spatial index and any CH topology are immutable
// after build and always shared.
//
// # Scratch
//
// A Router handle owns two pieces of query state, both allocated on
// its first query: the path engine fork (see internal/route: who owns
// which scratch) and the region-level search's regionScratch —
// epoch-stamped visit marks, parent links and a heap that is Reset
// rather than reallocated, with the same clear-on-uint32-wrap rule as
// the engines. Clone drops the scratch pointer and forks the engine —
// for IngestClone too — or two handles would search in one state.
// Nothing a caller receives aliases scratch: the region path is counted
// and copied out at exact size, road paths are the engine's fresh
// copies (or stored paths of the immutable region graph), and a Case-2
// answer is assembled as ps + road + pd in one allocation of its own.
// There is no memo of region paths or routes here; caching is the
// serving layer's job.
//
// # Persistence
//
// Save/Load round-trip a built router as a checksummed artifact
// (internal/codec) so the minutes-to-hours offline build is paid once
// per deployment. Artifacts carry ArtifactMeta — a name, a
// build-options summary (BuildInfo) and a save generation that
// advances on every Save — which the multi-tenant serving layer
// (internal/serve.Fleet) uses to identify and hot-reload tenants.
//
// Save writes artifact v3: one codec frame whose payload is the road
// network's identity and five sections, each an 8-byte length and its
// bytes:
//
//	uint64   road identity: FNV-64a of the road section (wal.IdentityOf)
//	road     roadnet.WriteTSV bytes, verbatim
//	region   region.Snapshot.Append's image: delta runs for vertex sets,
//	         out-edge walks for stored and inner paths, one backing array
//	prefs    edge count, then per edge in ID order a fit or none; the
//	         region preferences in region order
//	meta     gob of ArtifactMeta, Stats and the spatial index's cell size
//	order    the contraction order (vertex count, then the vertices);
//	         empty only in artifacts saved by routers that ran on plain
//	         Dijkstra, for which Load contracts afresh
//
// Nothing is stored twice and nothing a restart needs is derived twice:
// the identity lets the serving layer verify a WAL and a checkpoint
// without serializing the network (RoadIdentity), Load derives the
// hierarchy from the order (ch.DeriveTopology, which refuses an order
// whose fill would pass a budget linear in the road's edges) instead
// of contracting, and LoadOnto restores a checkpoint onto its base:
// onto the base's road when the checkpoint's identity is the one the
// caller holds for the base, and onto the base's topology and
// metric table too when the orders match, customizing only the metrics
// the base lacks. A loaded router serves on the order it was saved
// with and saves that order again. The spatial index is built on first
// use, by map matching, not by Load.
//
// Load and LoadOnto run on two goroutines. The side one verifies the
// frame's checksum (codec.Frame.Verify), then, once the road is parsed
// (or taken from the base) and the order checked, derives the
// hierarchy and customizes its three scalar metrics — or forks the
// base's, when the checkpoint shares it. The calling one meanwhile
// decodes the region section, restores the region graph and reads the
// preferences and metadata. When both are done, the masked metrics the
// router routes on are customized in one PrepareAll call, a metric per
// core. The decoder reads bytes not yet verified, which is safe
// because it accepts any payload (FuzzLoad); nothing is returned before
// the checksum is checked, and a mismatch is codec.ErrCorrupt whatever
// the decoder made of the bytes.
//
// Load reads v3 only; a v1/v2 artifact (one gob envelope, the fits in a
// Learned map of their own) is refused with codec.ErrBadVersion, and a
// region section without visit counts with codec.ErrMalformed
// (OPERATIONS.md, "Compatibility across versions"). An artifact is
// outside input, so Load checks every count against the bytes left
// before allocating for it and every ID against what it names (region
// members, path and inner-path vertices, transfer centers and their
// counts, edge endpoints, road types, fit and region-preference keys
// and weights, the order being a permutation) and refuses what fails.
package core
