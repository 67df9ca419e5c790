// Package route implements shortest-path search on road networks and
// the PathEngine seam every routing consumer programs against.
//
// # Searches
//
// The package provides plain Dijkstra under any scalar weight
// (shortest, fastest, most fuel-efficient paths), the paper's
// preference-aware modified Dijkstra (Algorithm 2), and a bounded
// search (Engine.Bounded) that stops at a cost bound and leaves its
// labels in place: map matching reads them through Engine.Settled,
// one search per candidate and lattice step, without copying them out.
//
// # The PathEngine seam
//
// PathEngine is the pluggable backend: Graph, Fork, Route, AppendRoute
// (Route into a caller-owned buffer), Fastest, Shortest and RoutePref.
// The preference learner's searches, the baselines, the trajectory
// simulator and the experiment harness hold a PathEngine, so speed-up
// techniques plug in beneath all of them at once. CustomRoute, a
// search under an arbitrary edge cost function, is Dijkstra-only: it
// is Engine's, and the baselines and the simulator's per-driver costs
// that call it hold an Engine.
// core.Router holds a CHEngine: its unified routing (approach
// searches, fastest fallbacks, connector stitching), and the serving
// layer above it, always run on the hierarchy. Two implementations
// ship:
//
//   - Engine: plain Dijkstra plus Algorithm 2.
//   - CHEngine: every query family answered on one customizable
//     contraction hierarchy (internal/ch), contracted once and
//     customized per metric — the scalar weights, Algorithm 2's
//     preference searches (the slave restriction is static, so it is a
//     metric with forbidden edges at +Inf). Nothing falls back to
//     Dijkstra.
//
// # The slave restriction as a table
//
// Algorithm 2's restriction is static: under a road-type mask, edge u→v
// is skipped exactly when some out-edge of u has a type in the mask and
// u→v's does not. OutTypeMasks tabulates the per-vertex half once per
// graph; Engine's masked relax (AppendRouteMask), CHEngine's masked
// customization cost and the preference learner's pruning rules
// (internal/pref) all read the same table.
//
// # Pass forks and adoption
//
// A metric in the shared table stays resident for good, so only metrics
// serving routes on belong there. A resident metric is its two weights
// and a byte per arc and direction naming the lower triangle that set
// each (18 bytes per skeleton arc, 140 KB on the 1.6k-vertex ci city);
// the triangle table those bytes index, and unpacking reads, is the
// topology's and shared by every metric. TryAppendRouteMask answers the
// preference learner's masked searches without adding one: on an
// ordinary fork only when the table holds the metric, and on a pass
// fork (PassFork) always, customizing into the fork's private overlay.
// The overlay is shared by the pass fork's own forks — one per learning
// worker, concurrency-safe like the shared table — and by no other
// fork. PrepareAll on the pass fork adopts the overlay's metrics
// instead of customizing them again, and customizes the rest together,
// a metric per core; dropping the pass fork drops the overlay.
//
// # Concurrency contract
//
// A PathEngine owns mutable query state and serves one goroutine.
// Fork() returns a sibling sharing all immutable built state — the
// road network and, for CHEngine, the topology, the customized-metric
// table and a pass fork's overlay — with fresh query state. Forking is
// cheap: per-vertex search buffers are allocated lazily on a fork's
// first query, so core.Router.Clone and the serve package's
// per-snapshot clone pools cost a struct up front and only forks that
// actually serve traffic pay for arrays.
//
// # Who owns which scratch
//
// The query state is scratch: Engine's distance/parent arrays and
// heap, CHEngine's one ch.MetricQuery (labels, chain and unpack
// buffers, shared across every metric the fork routes on). All of it
// belongs to the fork and is overwritten by the fork's next query. A
// path an engine returns never aliases it: Route, Fastest, Shortest,
// RoutePref and Engine's CustomRoute hand over a fresh exact-size
// slice (one allocation per path), which callers keep across later
// queries on the same engine — core.Router
// slices its Case-2 approach paths out of one and reads them after the
// next search, caches share them across goroutines. AppendRoute is the
// exception by construction: it writes into the caller's buffer, for
// callers (the preference learner) that inspect a path and discard it.
package route
