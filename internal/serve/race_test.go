//go:build race

package serve

// The allocation gate counts the handler's own mallocs; the race
// detector adds its own. See TestHandlerRouteHitAllocations.
func init() { raceEnabled = true }
