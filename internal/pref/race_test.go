//go:build race

package pref_test

// The exhaustive reference is ~15x slower under the race detector and
// the exactness tests are single-goroutine per city; see
// TestLearnMatchesExhaustive.
func init() { raceEnabled = true }
