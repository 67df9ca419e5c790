package obs

import "sync/atomic"

// CountClockReads makes every Now add one to n, until the returned
// function restores the uncounted clock.
func CountClockReads(n *atomic.Int64) (restore func()) {
	count := func() { n.Add(1) }
	clockHook.Store(&count)
	return func() { clockHook.Store(nil) }
}
