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
// stitching), the preference learner's master-only searches, the
// serving layer, the baselines, the trajectory simulator, the
// experiment harness — holds a PathEngine, so speed-up techniques plug
// in beneath all of them at once. Two implementations ship:
//
//   - Engine: plain Dijkstra plus Algorithm 2 (the default).
//   - CHEngine: scalar fastest-path queries answered through a
//     contraction hierarchy (internal/ch) with shortcut unpacking;
//     searches the hierarchy cannot express — preference-constrained
//     Algorithm 2, custom edge costs, other scalar weights — fall back
//     to an embedded Dijkstra engine transparently.
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
// # Concurrency contract
//
// A PathEngine owns mutable query state and serves one goroutine.
// Fork() returns a sibling sharing all immutable built state — the
// road network and, for CHEngine, the hierarchy — with fresh query
// state. Forking is cheap: per-vertex search buffers are allocated
// lazily on a fork's first query, so core.Router.Clone and the serve
// package's per-snapshot clone pools cost a struct up front and only
// forks that actually serve traffic pay for arrays.
package route
