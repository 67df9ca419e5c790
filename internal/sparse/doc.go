// Package sparse implements the small linear-algebra kernel required by
// the preference-transfer step (paper Section V-B): symmetric sparse
// matrices in CSR form — assembled from triplets (New) or adopted from
// rows a caller already built in column order (FromRows) — and one
// solver for Eq. 3, SolveBlock: Jacobi-preconditioned conjugate
// gradient over all right-hand sides at once.
//
// # Why the columns are solved in lockstep
//
// Eq. 3 is one matrix and p right-hand sides (one per preference
// column). On the ci city the matrix has n = 2,986 rows and 666,650
// stored entries (223 per row, 7.5 % dense, 8 MB of CSR) while a vector
// is 24 KB, so a solve is bound by streaming the matrix: solved one
// column at a time, nine active columns × ~160 iterations re-read it
// 1,478 times. SolveBlock keeps X, R, P and A·P row-major n×k and
// advances every column through the same iteration together, so one
// pass over vals/colIdx serves all of them; the kernel sweeps a matrix
// row once per block of four columns with four running sums in
// registers. Columns still never interact: each has its own alpha, beta
// and residual, stops on its own ‖r‖/‖b‖ < tol, and is frozen from that
// iteration on, so a column's arithmetic is exactly the single-column
// solver's. CG is that solver — SolveBlock with k = 1 — not a second
// implementation.
//
// # Why the preconditioner is safe
//
// A = S + µ1·L + µ2·I is symmetric positive definite whenever µ2 > 0,
// with a strictly positive diagonal (S_ii + µ1·deg_i + µ2), so
// M = diag(A) is SPD too and preconditioned CG converges to the same
// solution; degrees span two orders of magnitude, which is what Jacobi
// scaling removes (1,478 → 421 iterations at ci). The stopping test
// stays on the true residual ‖b − A·x‖/‖b‖, not the preconditioned one,
// so Tol means what it meant without preconditioning. With µ2 = 0 an
// isolated unlabeled row is all zero; its diagonal is treated as 1 and
// the row stays at its initial value instead of dividing by zero.
//
// # Worker independence
//
// SolveBlock splits the columns into contiguous groups, one goroutine
// per group. A group owns its columns outright — no reduction crosses
// groups, and inside a group every per-column sum runs over rows in
// order — so the solution, the iteration counts and the convergence
// flags are bit-identical for any worker count and any grouping; the
// tests assert it with Float64bits.
package sparse
