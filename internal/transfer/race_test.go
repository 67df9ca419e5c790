//go:build race

package transfer_test

// The ci-scale reference solves take minutes under the race detector;
// CI runs them in an un-instrumented step.
func init() { raceEnabled = true }
