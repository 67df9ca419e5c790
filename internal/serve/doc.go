// Package serve is the online serving subsystem: it takes built (or
// loaded) core.Routers and exposes them to concurrent query traffic
// while trajectory ingestion and artifact reloads keep them current in
// the background. See ARCHITECTURE.md at the repository root for how
// this package sits on top of the offline pipeline.
//
// # Snapshot swapping
//
// The design is snapshot swapping. The current router lives behind an
// atomic pointer; queries load the snapshot, borrow a per-goroutine
// clone from the snapshot's pool (a core.Router's search engine is
// single-caller), answer, and return the clone — no locks on the query
// path. Ingestion is copy-on-write: a single writer takes an
// IngestClone of the current router (sharing everything the batch does
// not touch), ingests the new trajectories into the clone off the query
// path, and atomically publishes the result as the next generation.
// Queries racing an ingest simply keep reading the previous generation;
// nothing blocks and nothing is read mid-mutation. Publish swaps in an
// externally built router the same way — it is both the full-rebuild
// path and the hot-artifact-reload path.
//
// Every router arrives on its contraction hierarchy — core.Build
// contracts one, core.Load derives it from the order the artifact
// carries — so no way into an engine (construction, recovery, Publish)
// prepares anything. Options holds only what its
// callers set to different values: the cache has a fixed 16 shards,
// Ingest always map-matches (IngestMatched takes resolved paths), and
// the ingest confidence gate and rebuild threshold come from the router.
//
// # Cache and coalescing
//
// In front of the snapshot sits one duplicate absorber, a sharded LRU
// route cache (routeCache). It exploits the heavy skew of real road
// traffic toward hot OD pairs: repeated queries cost a map lookup, not
// a graph search. Entries record the generation that produced them and
// are treated as misses once the snapshot advances, so an ingest that,
// say, upgrades a B-edge to a T-edge can never serve a stale
// pre-ingest route. The cache is also the coalescer of *concurrent*
// duplicates — the cold thundering herd on a hot key after startup or
// a swap. One visit to the key's shard answers hit, wait or lead: the
// first miss reserves the entry with a flight and computes, the
// duplicates that find the entry in flight wait and share its answer,
// and landing the flight turns the entry into a plain cached answer.
// Flights are reserved per generation for the same staleness
// guarantee, and a lookup from a generation older than the entry's
// computes without the cache rather than disturbing it.
//
// A hit is a few hundred nanoseconds, so what it writes matters more
// than what it computes: a cache line two cores write costs each of
// them a transfer per hit, and how much depends on where the host
// puts the cores. The hit path therefore writes one shared line, the
// shard's (its lock, and under the lock the hit/miss counts and the
// LRU links, which a hit on the entry already at the head leaves
// alone). Latency is counted on striped histograms that a sync.Pool
// token keeps P-local (see metrics) and readers merge.
//
// # Route replies
//
// The same reasoning governs the HTTP reply around a hit. The body of
// GET /route and GET /route/alternatives is appended straight from the
// engine's results into a pooled buffer (appendRouteReply: compact
// JSON, the keys and number formatting encoding/json would give,
// Content-Length set, one Write) — no reflection, no intermediate
// struct, no copy of the path. A route's length and travel time are
// walked once, when it is computed, and cached with it (measure): a hit
// re-walks nothing. The query string is scanned in place (rawQuery) and
// the request-ID middleware allocates the ID and its header values,
// nothing else. Every other endpoint and every error reply goes through
// WriteJSON (encoding/json, indented).
//
// # Multi-tenant fleets
//
// The paper builds one region graph per city's trajectory set, so a
// production deployment runs many routers. A Fleet is a registry of
// named Engines behind one HTTP front-end: per-tenant caches and
// metrics; tenant-addressed routes (/t/{tenant}/route, ...);
// aggregate stats. A Watcher keeps a fleet in sync with a directory of
// *.l2r artifacts, hot-swapping rebuilt files into the live fleet via
// the same snapshot machinery — in-flight queries finish on the
// generation they loaded, and a half-written file fails its checksum
// and is retried on the next scan instead of dethroning the serving
// snapshot. The registry is an immutable map behind an atomic pointer,
// replaced by writers under one mutex, so no read waits on a writer —
// not even on a hot swap stuck behind its tenant's maintenance
// rebuild. A new tenant's engine — checkpoint decode, WAL replay and
// all — is built before that mutex is taken, and the tenant is listed
// only once it serves. The fleet is
// only a registry: each tenant's engine owns its lifecycle, and the
// fleet mounts the engine's bare API under /t/{tenant} inside its own
// request-ID and tracing middleware, so every request is stamped and
// traced once, with its full path.
//
// # Attachments
//
// What rides on an engine does so through one seam: Engine.Attach
// takes an Attachment (the endpoint it serves, what to do with an
// applied batch, how to fill its block of Stats) and keeps a
// copy-on-write list that the write path — the offer, the one
// attachment call under writeMu, may not block — Stats,
// /debug/snapshot and the HTTP dispatch read without a lock. What a
// publish installs is on the served snapshot's books, read through
// Engine.Drift and Engine.Accrual.
// internal/stream's Ingestor (POST /stream; its batches enter through
// IngestMatched, many trajectories per swap), internal/quality's
// Observer (GET /debug/quality) and internal/maint's Maintainer
// (GET /debug/maint) implement it. Re-attaching on an endpoint
// replaces; an endpoint nothing is attached at answers 404. The wire
// types (StreamStats, QualityStats, MaintStats) stay in this package.
//
// The engine stops what rides on it. Engine.Close stops its
// attachments, last attached first — a stream pipeline's final flush
// still reaches the observers attached before it and the open
// write-ahead log — then releases the log; it does not checkpoint.
// Engine.Shutdown is the planned way down: the same, with a checkpoint
// between the two, so the next start replays nothing. Both act once.
//
// Fleet.Attach registers a function the fleet runs for every tenant,
// present and future, before a new tenant is listed; Remove and Close close
// the tenant's engine, which stops what the function attached. A hot
// swap keeps the engine and everything on it.
//
// # Durability
//
// By itself the snapshot machinery is a cache: a restart rolls the
// router back to its build artifact. NewDurableEngine attaches
// internal/wal underneath the write path — every ingest batch is
// appended to a write-ahead log *before* the swap that applies it,
// periodic checkpoints fold the log into a saved artifact, and a
// restart recovers checkpoint + log tail (verifying road identity,
// tolerating a torn final record, refusing corruption) so
// live-learned state survives crashes. Fleets journal per tenant
// under Options.WALDir; Publish folds a hot artifact reload into a
// fresh checkpoint so stale pre-reload batches are never replayed
// onto a post-reload base. OPERATIONS.md at the repository root is
// the operator-facing runbook.
//
// Serving metrics (QPS, per-category latency quantiles, cache hit
// rate, coalesced and computed query counts, snapshot generation,
// ingest lag, durability counters) are exposed per engine (Stats) and
// aggregated per fleet (FleetStats).
package serve
