// Package worldgen generates deterministic synthetic-city worlds —
// road network plus trajectory set — for the benchmark, the in-process
// bench suite and the ci-scale serve tests (internal/serve's
// TestCIServeSmoke, TestCIReplayAndRecoveryAgree and TestScaleLadder).
//
// A Spec pins everything a world depends on: one seed, a road-network
// generator configuration (seeded grid towns × vertex perturbation ×
// arterial/highway tiers, via roadnet.Generate) and a trajectory
// simulator configuration. Build is a pure function of the Spec: the
// same Spec always yields a byte-identical road network (CSR arrays
// and all) and an identical trajectory set, which is what makes
// benchmark comparisons and TestCIReplayAndRecoveryAgree's
// replay-twice audit meaningful.
//
// Specs come in three forms:
//
//   - ForScale(name, seed) — the named ladder ("bench", "ci", "city",
//     "metro", "max") from the ~230-vertex bench world up to ~1M
//     vertices. "bench" reproduces exactly the world bench_test.go has
//     always used (roadnet.Tiny + a D2-like taxi feed), so migrating
//     the bench suite onto worldgen changed no committed numbers.
//   - ForVertices(n, seed) — derives town count, grid sides and map
//     extent for an approximate target vertex count.
//   - a hand-assembled Spec for custom experiments.
//
// Invariants, enforced by Build and property-tested in
// worldgen_test.go:
//
//   - connected: every generated graph is a single (strongly)
//     connected component. roadnet.Generate can drop residential
//     segments and strand grid corners; Build detects components and
//     deterministically splices Primary repair links from each minor
//     component to the nearest main-component vertex.
//   - seed-stable: the same Spec produces byte-identical graphs
//     (compare with Fingerprint or roadnet.WriteTSV) and identical
//     trajectories across runs and machines.
//   - scale-monotone: a larger ForVertices target never produces a
//     smaller graph.
//   - trips are engine-independent: the simulator routes on a
//     contraction hierarchy built for the run, and draws exactly the
//     trips an all-Dijkstra run would (pinned by traj's
//     TestSimulatorMatchesDijkstraReference on 14 worlds, and by
//     TestCITripDigest's digest of ci seed 1, recorded on Dijkstra).
package worldgen
