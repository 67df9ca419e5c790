// Package traj provides the trajectory substrate: GPS records,
// trajectories, the synthetic driver-population simulator that stands in
// for the paper's proprietary GPS datasets D1 (Denmark, 1 Hz) and D2
// (Chengdu taxis, 0.03–0.1 Hz), train/test splitting by time, and the
// travel-distance statistics of Table II.
//
// The simulator's central property is that drivers choose paths according
// to *latent, region-pair-dependent* routing preferences — exactly the
// structure L2R assumes — so the learning pipeline has a recoverable
// signal, and cost-centric baselines (shortest/fastest) are wrong
// whenever the latent preference disagrees with their single cost.
//
// Which engine answers which search. Simulator.Run builds a
// customizable contraction hierarchy (route.CHEngine) for the length of
// the run and drops it when Run returns, so a Simulator — and the
// worldgen.World holding one — keeps no hierarchy. The noise trips'
// Fastest and every latent-preference search (Algorithm 2 under one of
// the 3 masters × 7 slave features LatentPreference can return) run on
// it, all 21 metrics customized up front in one PrepareAll, a metric
// per core, the masked ones stored against their masters. A time-minimizing driver's search is a cost function of
// that driver — travel time under their per-road-type SpeedFactor — so
// it stays on Dijkstra (route.Engine): a metric per driver would be
// customized for a few searches each, and was slower. The trips are
// engine-independent: the test-only all-Dijkstra run draws the same
// ones, bit for bit (TestSimulatorMatchesDijkstraReference). Building
// the hierarchy pays from a few hundred trips on; a run of tens of
// trips on the n1/n2 networks spends more on it than it saves.
package traj
