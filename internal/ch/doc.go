// Package ch implements a customizable contraction hierarchy — the
// speed-up technique the paper cites as reference [16] and names as the
// way to accelerate all compared routing algorithms consistently
// (Section VII-C) — after Dibbelt, Strasser and Wagner, "Customizable
// Contraction Hierarchies" (arXiv:1402.0402). There is one hierarchy and
// one query; the pipeline splits at the metric boundary:
//
// BuildTopology contracts the road network once, metric-independently —
// no witness searches, every potential shortcut kept — producing a fixed
// skeleton of undirected arcs in flat CSR int32 arrays, each arc owned
// by its lower-ranked endpoint and each up-arc range sorted by rank. It
// is two steps: ContractionOrder, the greedy heuristic that plays the
// elimination game to choose the order (the expensive step), and
// NewTopology, which derives the skeleton any order induces by symbolic
// elimination in one pass. An artifact carries the order
// (Topology.Order), so a restart pays only the second step, through
// DeriveTopology, which refuses an order whose fill would pass a budget
// linear in the road's edges; TestSkeletonMatchesReference holds it to the map-based build it
// replaced. The game itself runs on flat neighbour lists, with fill
// counted as C(deg, 2) minus the adjacent pairs a stamp array finds;
// TestContractionOrderMatchesReference holds its order to the map-based
// game's, vertex for vertex.
//
// The triangle table. Because contraction keeps every fill edge, every
// pair of a vertex a's up-arcs {a, b1}, {a, b2} closes a lower triangle
// with the arc {b1, b2}: the only ways a shortcut's weight can be
// composed. NewTopology lists each triangle once, in one enumeration
// and a counting sort, grouped by the arc it relaxes and, within an
// arc, in ascending rank of its middle vertex a, as the CSR indexes of
// its two other arcs; each arc's owner is kept beside it, so a
// triangle names its middle vertex. The table's size is known before it
// is built — Σ C(|up(a)|, 2) over all a — and the build panics if a
// pair of up-neighbours is not adjacent, the invariant the query and
// the table rely on. The table is metric-independent and shared by
// every metric customized from the topology.
//
// Topology.Customize then assigns both directed weights to every
// skeleton arc for any non-negative edge-cost function: seed each arc
// from its original road edges, then, with owners in ascending rank
// order, relax each arc through its triangles in the table's order.
// The two arcs a triangle reads are owned by its middle vertex, which
// the arc's owner outranks, so they are final by then: one linear pass
// over the table, milliseconds where re-contraction costs seconds.
// Metrics are independent, so Topology.CustomizeAll hands them out
// whole to min(len, GOMAXPROCS) goroutines (one metric runs inline),
// and TestCustomizeAllMatchesPerMetric holds both to the per-vertex
// sweep they replaced, bit for bit: the same additions in the same
// order, the first strict improvement winning a tie. Routing
// preferences, live traffic weights and custom cost functions each
// become just another Metric over the shared Topology (+Inf marks an
// arc a metric forbids or cannot reach in that direction).
//
// A dense Metric is its weights and one byte per arc and direction: 18
// bytes per arc. The byte names the triangle that set the weight — 0
// for the original road edge, c in 1..254 for the arc's (c-1)-th
// triangle, and 255, the escape, for "the first triangle from index 254
// on whose sum equals the weight" (the most any arc has is 26 at ci and
// 73 at city; TestEscapeCode builds one with 300). A middle vertex per
// arc would cost 8 bytes more, for every metric.
//
// Masked metrics. A metric that forbids some edges of another — route's
// ⟨w, slave⟩ preference metric against the scalar ⟨w, –⟩ — differs
// from it on about 38 % of arc-directions at ci, and on 35 % of all
// arc-directions only by being +Inf. CustomizeAll, handed that master,
// stores such a metric as a delta: it shares the master's arrays and
// keeps, per direction, a bitmap of the arcs it makes +Inf, a bitmap of
// the other arcs whose weight or code differs, a rank directory (the
// exceptions before each 64-arc word) and the exceptions' weights and
// codes packed in arc order — about 10 KB a metric at ci instead of 140
// KB. The customization is Customize's sweep, run in pooled dense
// scratch; as soon as an owner's arcs are final they are compared with
// the master's, without a branch, a bitmap word at a time, and the
// exceptions are packed from their bitmap afterwards. The climb
// (runMasked, run's twin) walks a masked metric's up-arcs a bitmap word
// at a time: +Inf arcs are skipped, the rest relaxed at the master's
// weight, and the word's exceptions, which are consecutive in the
// packed list, at their own. Unpacking reads an arc's code from the
// exceptions or from the master. TestMaskedMetricMatchesDense holds
// every producible masked key's weights and codes, expanded, to dense
// Customize's bit for bit, and TestMaskedQueryMatchesDense its answers
// and search trees; dense Customize of a masked cost function survives
// only as that reference.
//
// MetricQuery answers any of them with the elimination-tree query.
// Because contraction keeps every fill edge, the up-neighbours of a
// vertex are pairwise adjacent: its lowest-ranked up-neighbour — the
// first arc of its range — is adjacent to all the others and outranked
// by them, so it is the vertex's parent in the elimination tree and the
// others are that parent's up-neighbours, hence ancestors. Everything an
// upward search from s can reach therefore lies on the single chain from
// s to the root of its tree, in rank order, and no arc leads back down
// it. The query climbs s's chain relaxing each vertex's up-arcs under
// wUp, then d's chain under wDown, and takes the common ancestor with
// the least fwd+bwd sum (the first to attain it, in climb order, so the
// choice is deterministic); parent pointers over skeleton arcs are kept
// and the path is unpacked by reading each shortcut's winning triangle
// from the table — its two arcs and its middle vertex — and recursing
// on both, with no search for arcs. A vertex the climb cannot label is
// still climbed through: its ancestors may be labelled over other arcs.
// A disconnected network contracts to a forest, and chains in different
// trees share no vertex.
//
// There is no priority queue and no stopping criterion. A queue-driven
// bidirectional search may stop once both frontiers pass the best
// meeting cost, but on these networks it has by then settled about as
// many vertices as the two chains hold (52.7 against 56 at 1.6k
// vertices, 143 against 75 at 26k) and paid several heap operations for
// each; the climb visits a fixed, short, rank-ordered list. Query cost
// is thereby a property of the contraction order, not of the OD pair:
// Topology.Height and ClimbArcsMean report it, and are the numbers that
// say when a nested-dissection order would start to pay.
//
// Labels. A MetricQuery keeps 12 bytes per vertex and side: dist, +Inf
// everywhere between queries, and parc, the arc a label was set over;
// the parent is that arc's owner, lowOf[parc]. Only the two chains are
// labelled, so a query puts them back to +Inf before it returns, and
// +Inf arithmetic refuses relaxations from unlabelled vertices and over
// a dense metric's +Inf arcs without a test (a masked metric's bitmap
// skips its own). It is not safe for concurrent use — one per
// goroutine. AppendRoute writes into a caller's buffer and allocates
// nothing; Route unpacks into the query's own buffer and returns one
// exact-size copy, so a returned path never aliases scratch.
//
// The query returns exactly Dijkstra's costs; property tests pin CCH ≡
// Dijkstra, and TestElimTreeMatchesReference pins the climb to the
// priority-queue query it replaced bit for bit, cost and path. That
// reference is kept test-only with the metric layout it ran on — a
// middle vertex per arc, unpacked by searching for the arcs to it — so
// it checks the triangle codes, not just the climb.
package ch
