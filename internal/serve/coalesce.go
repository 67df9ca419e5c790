package serve

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// flightKey identifies one in-flight route computation. The snapshot
// generation is part of the key so a query that arrives after a swap
// never latches onto a computation running against the previous
// router — it starts (or joins) a flight for the new generation
// instead, mirroring the cache's generation-based invalidation.
type flightKey struct {
	key cacheKey
	gen uint64
}

// flight is one in-progress computation. The leader marks done after
// storing the answer (res and its measures); followers wait on done and
// share it. ok records that the leader's compute actually finished — if
// it panicked, followers must not trust the answer. waiters counts
// followers currently blocked (observability and tests). done is a
// WaitGroup of one, not a channel: with the answer's measures riding in
// the flight, a channel beside it would make a miss allocate more than
// it did without them.
type flight struct {
	done    sync.WaitGroup
	res     []core.RouteResult
	meas    []measure
	ok      bool
	waiters atomic.Int32
}

// flightGroup coalesces concurrent duplicate route computations
// (singleflight): the first caller for a key becomes the leader and
// computes; callers that arrive while the leader is in flight wait and
// share the leader's answer instead of borrowing a router clone and
// repeating the search. Real road traffic is heavily duplicate-skewed —
// a hot OD pair going cold (startup, post-ingest swap) would otherwise
// stampede the engine with identical searches.
type flightGroup struct {
	mu      sync.Mutex
	flights map[flightKey]*flight
}

func newFlightGroup() *flightGroup {
	return &flightGroup{flights: make(map[flightKey]*flight)}
}

// do returns compute()'s answer for k, running compute at most once
// across all concurrent callers with the same key. The boolean reports
// whether this caller shared another caller's computation (a coalesced
// follower) rather than leading its own.
func (g *flightGroup) do(k flightKey, compute func() ([]core.RouteResult, []measure)) ([]core.RouteResult, []measure, bool) {
	g.mu.Lock()
	if f, ok := g.flights[k]; ok {
		f.waiters.Add(1)
		g.mu.Unlock()
		f.done.Wait()
		if f.ok {
			return f.res, f.meas, true
		}
		// The leader panicked out of compute without a result. Fall
		// back to computing locally — the panic (a routing bug)
		// surfaces on the leader's stack, not as a mysterious nil
		// result here.
		res, meas := compute()
		return res, meas, false
	}
	f := new(flight)
	f.done.Add(1)
	g.flights[k] = f
	g.mu.Unlock()

	defer func() {
		// Runs even if compute panics, so followers are never stranded
		// on a flight that will not finish.
		g.mu.Lock()
		delete(g.flights, k)
		g.mu.Unlock()
		f.done.Done()
	}()
	f.res, f.meas = compute()
	f.ok = true
	return f.res, f.meas, false
}
