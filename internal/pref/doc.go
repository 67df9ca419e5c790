// Package pref implements the paper's routing-preference model
// (Section V-A).
//
// A Preference is two-dimensional: a master travel-cost dimension (DI,
// TT or FC — distance, travel time, fuel consumption) and a slave
// road-condition dimension (a set of preferred road types). The
// package provides the two path-similarity functions the paper
// evaluates with (Eq. 1 exact-match and Eq. 4 length-weighted), and
// the coordinate-descent Learner that extracts one representative
// preference per T-edge (or per region) from its associated path set,
// reporting a training Similarity that downstream stages use as a
// confidence gate (0.7, core's minConfidence) before applying a
// preference at query time or trusting it as a transfer label
// (internal/transfer). A preference's slave is NoSlave or one of
// CandidateSlaves — what Preference.Valid accepts.
//
// # Search elimination
//
// Read literally, Learn costs 3 + 2·len(CandidateSlaves()) = 21
// Algorithm 2 searches per sampled path: one per master weight, then
// one per ⟨master, slave⟩ combination for the two best masters.
// The learner is the whole cost of the write path (core.Router.Ingest
// relearns every touched T-edge), so Learn runs only the searches whose
// outcome is not already determined. The three master-only searches per
// path always run, unless a memo answers them; they yield, per path i and master m, the candidate
// P0(i, m) and its Eq. 1 similarity sim0(i, m). Two rules then dispose
// of the restricted searches, a third answers any search already run
// for the same ground truth, and Learner.Searches counts every search
// as Run, Reused, Bounded or Memo. The result is the exhaustive
// procedure's, bit for bit — preference, similarity and paths used —
// which TestLearnMatchesExhaustive checks against the literal reading
// kept in reference_test.go; TestLearnMemoMatchesFresh holds a learner
// with a memo to one without.
//
// The first two rest on one observation about Algorithm 2: whether it
// relaxes an edge u→v under slave s depends only on the graph — the
// edge is forbidden exactly when some out-edge of u has a type in s and
// type(u→v) is not in s (route.OutTypeMasks tabulates the first half
// per vertex). The restricted search is therefore plain Dijkstra on the
// subgraph G(s) of non-forbidden edges.
//
// Feasibility rule. If no hop of P0(i, m) is forbidden under s, the
// ⟨m, s⟩ candidate for path i is P0(i, m), and sim0(i, m) is reused
// without a search. Proof: P0 is a minimum-cost path in G under m and
// lies wholly in G(s) ⊆ G, so it is a minimum-cost path in G(s) too.
// This identifies the candidate only if minimum-cost paths are unique —
// with ties, Dijkstra's choice among equal-cost paths depends on
// relaxation order, which differs between G and G(s). Edge weights here
// are products of real-valued geometry (length, time, fuel), for which
// exact float ties between distinct paths do not occur in practice;
// the property tests hold the assumption to account on every T-edge of
// six generated cities. The same assumption lets every search run on a
// CCH (NewLearnerOn, "Engines" below), whose tie-breaking differs from
// Dijkstra's. The road network must also be simple — at most one edge
// per ordered vertex pair, which roadnet.Builder guarantees — since
// paths are vertex sequences and a hop's type is read off the one edge
// joining its endpoints.
//
// Upper-bound rule. A ground-truth edge forbidden under s cannot appear
// in a path found in G(s), so it cannot be shared: for a path whose
// master-only candidate is infeasible, Eq. 1 is at most
// b(i) = 1 − lost(i, s)/len(i), with lost the total length of the
// ground truth's forbidden edges. Feasible paths contribute sim0(i, m)
// exactly. The mean of these per-path values bounds avgSim(m, s) from
// above, and the learner tightens it as it goes: visiting the paths in
// sample order, it replaces each searched path's b(i) by the similarity
// found, which is at most b(i). Whenever the running mean (plus a 1e-12
// guard) does not exceed the incumbent similarity plus minImprovement,
// the exhaustive procedure would evaluate the combination and discard
// it, so the learner abandons it — before its first search or part-way
// — and counts the searches left as Bounded. The guard covers rounding:
// the bound holds in real arithmetic, and each side is a few roundings
// per path of values in [0, 1] (two more per replacement in the running
// sum), far inside 1e-12 for samples below thousands of paths. A
// combination's score is a separate sum of its similarities in sample
// order, to the exhaustive procedure's bits.
//
// Memo rule. Every search Learn runs for a ground truth is a function
// of the road network and that path alone: the candidate depends on the
// path's endpoints and the ⟨m, s⟩ metric, its Eq. 1 similarity on the
// candidate and the path. So is what the feasibility rule reads off
// P0(i, m): which slaves forbid one of its hops. A learner holding a
// Memo keeps, per ground truth, sim0 and those slave sets for the three
// masters and the similarity of each restricted search run (up to
// three; past that the search simply runs), and recalls them instead of
// searching when a later Learn samples the same path. The memo is keyed
// by the path's contents — a 64-bit hash, then an exact comparison, so
// a hash collision is a miss and never another path's values. Neither
// the bound sequence nor any sum changes, so neither does any Result.
// A value first computed on Dijkstra may be recalled where the
// hierarchy would now answer (its metric became resident in between):
// the same tie assumption as the feasibility rule's, and the engines'.
// core gives each router lineage one memo, shared by its pooled
// learners. It holds at most memoCap (8,192) entries — 1.1 MB measured
// when full, 88 bytes an entry and the rest its index — and a Learn
// that finds it full clears it. Nothing in it is persisted.
//
// On the benchmark city's write path — ingest_stream's 16 two-trip
// batches from a freshly loaded router — 83 % of all searches go by the
// upper-bound rule, under 1 % by the feasibility rule and 8.6 % by the
// memo; 7.4 % run, 97 % of those on the hierarchy. The memo answers
// 54 % of the master searches and 56 % of the restricted ones the other
// rules leave (over a 118-batch chain 77 % and 71 %: 12 % of all
// searches, with 3.7 % left to run).
//
// # Engines
//
// NewLearnerOn runs the master-only searches on a caller-supplied
// route.PathEngine — core passes a fork of the router's CCH engine, so
// they ride the three scalar metrics serving keeps resident anyway. On a route.CHEngine the surviving restricted
// searches go there too (CHEngine.TryAppendRouteMask): G(s) is G under
// a metric with the forbidden edges at +Inf, which the hierarchy
// customizes like any other. Two residency rules keep learning from
// leaving behind a metric serving would not keep anyway:
//
//   - On a plain fork (core's Ingest) the hierarchy answers only when
//     the shared table holds the metric, one a served preference
//     applies; a customization costs about a dozen Dijkstra searches,
//     so the rest fall back to the learner's Dijkstra.
//   - On a pass fork (CHEngine.PassFork, under core's Build and
//     Retransduce) it always answers, customizing a missing masked
//     metric into the fork's private overlay, stored against the
//     shared table's scalar metric for its master (about 10 KB a metric
//     on the 1.6k-vertex benchmark city, at most 27 metrics), adopted
//     into the shared table by PrepareMetrics if the derived model
//     applies it and dropped with the fork otherwise.
//
// Exactness: both engines return a minimum-cost path of G(s) under the
// master weight, the same one unless two paths tie exactly — the
// assumption the feasibility rule already rests on.
// TestRestrictedSearchOnHierarchyMatchesDijkstra checks it path for
// path, and TestLearnMatchesExhaustive holds a pass-fork learner to the
// exhaustive reference bit for bit. SearchStats.Hierarchy counts the
// searches the hierarchy answered. NewLearner(g) is the all-Dijkstra
// learner with the same pruning.
package pref
