//go:build race

package traj_test

// The 6.4k world of TestSimulatorMatchesDijkstraReference takes seconds
// on Dijkstra and minutes under the race detector; the un-instrumented
// run (CI has a step for it) covers it.
func init() { raceEnabled = true }
