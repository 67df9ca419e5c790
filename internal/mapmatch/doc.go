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
// There is one decoder, OnlineMatcher: it extends the lattice a record
// at a time and commits the prefix no later record can change.
// Matcher.Match, the offline pass, is that decoder run to completion,
// so a streamed trip and a batch-matched one get the same path by
// construction. The whole-trajectory lattice decoder is kept in
// reference_test.go as matchReference, the independent implementation
// the tests compare against.
package mapmatch
