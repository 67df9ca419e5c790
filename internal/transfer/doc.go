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
// A = S + µ1·L + µ2·I, L the Laplacian of the similarity graph W
// thresholded at AMR. At the ci city (AMR 0.7) an explicit A would have
// n = 2,986 rows and 666,650 entries, 7.5 % dense; at 6.4k vertices
// 58.7 M. A is never stored. Only the preference columns some label
// activates are solved (9 of 13 at ci); the rest are exactly 0.
//
// # Similarity windows
//
// reSim(i, j) = ½·disRatio(dᵢ, dⱼ) + ½·J(Fᵢ, Fⱼ), and F takes few values:
// 27 over ci's 2,989 region edges, 39 over 25,433 at 6.4k vertices. Rows
// sorted by (F, Dis, row) put each F-class in one run. For row i and
// class c′, ½J is one constant (pairs with ½ + ½J < AMR are skipped) and
// ½·disRatio rises with dⱼ up to dᵢ and falls after it; division,
// halving and addition round monotonically, so the rows of c′ reaching
// AMR are one window [lo, hi), split at mid (the first Dis above dᵢ),
// whose ends binary search finds on reSim's own float expression: the
// window is exactly the set all-pairs scoring keeps. Row i's own entry
// is cut out of its class's window. AdjacencyDensity counts window
// lengths; finding them costs O(n·C·log n), not O(n²).
//
// # The windowed operator
//
// Inside a window, with dᵢ > 0, Σⱼ Wᵢⱼ·xⱼ = ½J·Σxⱼ + (½/dᵢ)·Σ_{dⱼ≤dᵢ} dⱼxⱼ
// + ½dᵢ·Σ_{dⱼ>dᵢ} xⱼ/dⱼ: three differences of prefix sums of x, d·x and
// x/d (0 at d = 0), built once per column block and product. A row with
// dᵢ = 0 takes ½·Σxⱼ over its window's zero-distance rows instead
// (disRatio(0, 0) = 1, which the Fig. 9 sweep reaches at AMR 0.5) and
// nothing from farther rows (disRatio(0, d) = 0). Degrees are the sums
// of x ≡ 1, the diagonal is (S_ii + µ1·deg_i) + µ2, and a product costs
// O(n·C) per block instead of O(nnz). Result.NNZ still counts what an
// explicit A would store: similar pairs both ways plus the diagonal.
// The summation order is not a matrix row's, so Ŷ matches the explicit
// pipeline to 2e-11 at ci and 6e-10 at 6.4k vertices, with the same
// decoded preferences, null sets and iteration counts (421, 486); the
// explicit system is the test-only reference in equivalence_test.go.
//
// # Workers
//
// Windows are found, and column groups solved, on up to `workers`
// goroutines (core passes Options.Workers). One goroutine finds a row's
// windows, lanes never mix in a product, and a column is solved by one
// goroutine with its own prefix-sum scratch (see package sparse), so
// Result — Ŷ included — is bit-identical for any worker count.
package transfer
