// Package route implements shortest-path search on road networks and
// the PathEngine seam every routing consumer programs against.
//
// # Searches
//
// The package provides plain Dijkstra under any scalar weight
// (shortest, fastest, most fuel-efficient paths), the paper's
// preference-aware modified Dijkstra (Algorithm 2), and a
// stop-condition variant used by the unified routing procedure
// (Section VI, Case 2) to find the first region reached from an
// out-of-region endpoint.
//
// # The PathEngine seam
//
// PathEngine is the pluggable backend: Graph, Fork, Route, AppendRoute
// (Route into a caller-owned buffer), Fastest, Shortest, RoutePref and
// CustomRoute. Everything that needs a shortest path — core.Router's
// unified routing (approach searches, fastest fallbacks, connector
// stitching), the preference learner's searches, the serving layer,
// the baselines, the trajectory simulator, the experiment harness —
// holds a PathEngine, so speed-up techniques plug in beneath all of
// them at once. Two implementations ship:
//
//   - Engine: plain Dijkstra plus Algorithm 2 (the default).
//   - CHEngine: every query family answered on one customizable
//     contraction hierarchy (internal/ch), contracted once and
//     customized per metric — the scalar weights, Algorithm 2's
//     preference searches (the slave restriction is static, so it is a
//     metric with forbidden edges at +Inf) and hash-interned custom
//     cost functions. Nothing falls back to Dijkstra.
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
// serving routes on belong there. TryAppendRouteMask answers the
// preference learner's masked searches without adding one: on an
// ordinary fork only when the table holds the metric, and on a pass
// fork (PassFork) always, customizing into the fork's private overlay.
// The overlay is shared by the pass fork's own forks — one per learning
// worker, concurrency-safe like the shared table — and by no other
// fork. Prepare on the pass fork adopts an overlay metric instead of
// customizing it again; dropping the pass fork drops the rest.
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
// buffers, shared across every metric the fork routes on) and its
// custom-cost staging buffer. All of it belongs to the fork and is
// overwritten by the fork's next query. A path a PathEngine returns
// never aliases it: Route, Fastest, Shortest, RoutePref and CustomRoute
// hand over a fresh exact-size slice (one allocation per path), which
// callers keep across later queries on the same engine — core.Router
// slices its Case-2 approach paths out of one and reads them after the
// next search, caches share them across goroutines. AppendRoute is the
// exception by construction: it writes into the caller's buffer, for
// callers (the preference learner) that inspect a path and discard it.
package route
