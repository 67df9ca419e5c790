//go:build race

package ch_test

// The ci halves of TestElimTreeMatchesReference are one goroutine per
// city and several times slower under the race detector; the
// un-instrumented run (CI has a step for it) covers them.
func init() { raceEnabled = true }
