// Package sparse implements the small linear-algebra kernel required by
// the preference-transfer step (paper Section V-B): one solver for
// Eq. 3, SolveBlock — Jacobi-preconditioned conjugate gradient over all
// right-hand sides at once — and CSR matrices assembled from triplets
// (New), which tests use as reference systems.
//
// # The operator contract
//
// SolveBlock never reads an entry: it takes an Operator — dimension, a
// copy of the diagonal, and MulBlock, the product with a row-major block
// of columns — so a system can be applied without being stored, as
// internal/transfer applies Eq. 3 (stored, it is 666,650 entries at the
// ci city and 58.7 M at 6.4k vertices). An operator is symmetric
// positive (semi)definite; a lane's result depends on no other lane, on
// no block count and on no block position; and per-call state lives in
// the caller's scratch, one per column group, so groups share nothing
// but the read-only operator. In the tests a *Matrix is the operator
// every other is held to.
//
// # Why the columns are solved in lockstep
//
// Eq. 3 is one matrix and p right-hand sides (one per preference
// column). SolveBlock keeps X, R, P and A·P row-major n×k and advances
// every column through the same iteration together, so one product
// walks whatever the operator walks — entries, similarity windows — once
// per block of BlockWidth columns. Columns still never interact: each
// has its own alpha, beta and residual, stops on its own ‖r‖/‖b‖ < tol,
// and is frozen from that iteration on, so a column's arithmetic is
// exactly the single-column solver's.
//
// # Why the preconditioner is safe
//
// A = S + µ1·L + µ2·I is symmetric positive definite whenever µ2 > 0,
// with a strictly positive diagonal (S_ii + µ1·deg_i + µ2), so
// M = diag(A) is SPD too and preconditioned CG converges to the same
// solution; degrees span two orders of magnitude, which is what Jacobi
// scaling removes (1,478 → 421 iterations at ci). The stopping test
// stays on the true residual ‖b − A·x‖/‖b‖, so Tol means what it meant
// without preconditioning. With µ2 = 0 an isolated unlabeled row is all
// zero; its diagonal is treated as 1 and the row stays at its initial
// value instead of dividing by zero.
//
// # Worker independence
//
// SolveBlock splits the columns into contiguous groups, one goroutine
// and one scratch per group. No reduction crosses groups, and inside a
// group every per-column sum runs over rows in order, so the solution,
// the iteration counts and the convergence flags are bit-identical for
// any worker count and grouping; the tests assert it with Float64bits.
package sparse
