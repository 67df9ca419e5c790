// Package mapmatch implements hidden-Markov-model map matching after
// Newson & Krumm (SIGSPATIAL 2009), the algorithm the paper cites for
// aligning GPS trajectories with road-network paths.
//
// Emission probabilities are Gaussian in the distance from a GPS record
// to a candidate edge; transition probabilities decay exponentially in
// the absolute difference between the network route distance and the
// straight-line distance of consecutive records. Decoding is Viterbi
// over the candidate lattice. Route distances between candidates are
// computed with bounded Dijkstra searches so matching stays near-linear
// in trajectory length.
//
// # Transitions
//
// A lattice step runs one bounded search (route.Engine.Bounded) per
// live previous candidate, from its edge head, and every current cell
// reads the search's labels in place (route.Engine.Settled): no search
// result is copied out. A transition's via chain, the vertices between
// the previous candidate's edge head and the current candidate's edge
// tail, is built only when the transition becomes its cell's new best.
// It walks back from the tail along the first in-edge, in In order,
// whose tail is settled and tight within 1e-6, and is empty when the
// walk meets a vertex with no such in-edge. The rule is the one the
// matcher has always used; Dijkstra's own parent pointers would pick
// other chains among equal-length routes, which uniform grids are full
// of.
//
// There is one decoder, OnlineMatcher: it extends the lattice a record
// at a time and commits the prefix no later record can change.
// Matcher.Match, the offline pass, is that decoder run to completion,
// so a streamed trip and a batch-matched one get the same path by
// construction. The whole-trajectory lattice decoder is kept in
// reference_test.go as matchReference, the independent implementation
// the tests compare against.
package mapmatch
