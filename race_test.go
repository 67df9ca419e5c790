//go:build race

package repro_test

// The race detector drops sync.Pool items at random, so a route can
// allocate once more on one engine than on the other; the
// un-instrumented run (CI's tracing overhead step) keeps the check.
func init() { raceEnabled = true }
