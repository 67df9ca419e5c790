// Package transfer implements Section V-B and V-C of the paper:
// region-edge features and similarity (reSim), the graph-based
// transduction learning that spreads routing preferences from T-edges to
// similar B-edges by minimizing Eq. 2 through the linear system of
// Eq. 3, and the materialization of transferred preferences into
// concrete paths for B-edges with the preference-aware Dijkstra
// (Algorithm 2).
//
// # The system
//
// Run orders the rows labeled-first and solves A·Ŷ = S·Y with
// A = S + µ1·L + µ2·I, L the Laplacian of the similarity graph
// thresholded at AMR. At the ci city with AMR 0.7 that is n = 2,986
// rows (2,747 labeled T-edges + 239 B-edge targets), 331,832 similar
// pairs of 4.46 M, nnz(A) = 666,650 — 223 per row, 7.5 % dense. Of the
// 13 preference columns only those some label activates have a nonzero
// right-hand side (9 at ci); the rest are exactly 0 and are not solved.
//
// # One-pass assembly
//
// assemble scores the strict upper triangle once and writes A's CSR
// directly: count each row, then fill it as mirrored lower part,
// diagonal, upper part — which is column order, so there is no triplet
// list and nothing to sort. Off-diagonal (i, j) is µ1·(−reSim(i, j)).
// The diagonal has a defined summation order, (S_ii + µ1·deg_i) + µ2
// with deg_i the row's similarities added in column order; the triplet
// pipeline this replaced summed the same three terms in whatever order
// an unstable sort left them, which is why the two agree to 1 ulp on
// the diagonal (5 of 2,986 entries differ at ci) and bit for bit
// everywhere else.
//
// # The exact prefilter
//
// reSim = ½·dis + ½·J, with dis the centroid-distance ratio and J the
// Jaccard similarity of the functionality sets. J ≤ 1, and because
// |A∩B| ≤ min(|A|,|B|) and |A∪B| ≥ max(|A|,|B|), J ≤ min/max. Floating-
// point division and addition round monotonically, so each bound
// evaluated in reSim's own form is ≥ the reSim it stands in for: a pair
// whose bound is below AMR is below AMR, and skipping its set
// intersection changes no entry. At ci the 4.46 M pairs shrink to
// 2.17 M after the distance term and 1.21 M after the size term, of
// which 331,832 are accepted. AdjacencyDensity counts with the same
// scorer.
//
// # Workers
//
// Rows are scored, and column groups solved, on up to `workers`
// goroutines (core passes Options.Workers). A row is scored by one
// goroutine in column order and a column is solved by one goroutine
// (see package sparse), so Result — Ŷ included — is bit-identical for
// any worker count.
package transfer
