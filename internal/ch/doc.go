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
// (Topology.Order), so a restart pays only the second step;
// TestSkeletonMatchesReference holds it to the map-based build it
// replaced.
//
// Topology.CustomizeAll then assigns both directed weights to every
// skeleton arc for any number of non-negative edge-cost functions by
// relaxing lower triangles bottom-up in contraction order: one linear
// pass over the skeleton, milliseconds where re-contraction costs
// seconds. The pass enumerates each triangle, and finds its third arc,
// once for every metric prepared together, so a metric added to a sweep
// costs about half what a sweep of its own does; Topology.Customize is
// the batch of one, and TestCustomizeAllMatchesPerMetric holds the
// sweep to the per-metric one it replaced, bit for bit. Routing
// preferences, live traffic weights and custom cost functions each
// become just another Metric over the shared Topology (+Inf marks an arc
// a metric forbids or cannot reach in that direction).
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
// and the path is unpacked through each shortcut's recorded middle
// vertex. A vertex the climb cannot label is still climbed through: its
// ancestors may be labelled over other arcs. A disconnected network
// contracts to a forest, and chains in different trees share no vertex.
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
// Scratch and epochs. A MetricQuery owns per-vertex labels recycled
// across queries (and across metrics) by epoch stamps, the chain buffer
// and the unpack buffer; it is not safe for concurrent use — one per
// goroutine. AppendRoute writes into a caller's buffer and allocates
// nothing; Route unpacks into the query's own buffer and returns one
// exact-size copy, so a returned path never aliases scratch. The epoch
// is a uint32 bumped per query; on wrap every stamp is cleared and the
// epoch restarts at 1, because a stamp left 2³² queries ago would
// otherwise read as a live label.
//
// The query returns exactly Dijkstra's costs; property tests pin CCH ≡
// Dijkstra, and TestElimTreeMatchesReference pins the climb to the
// priority-queue query it replaced (kept as a test-only reference) bit
// for bit, cost and path.
package ch
