package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// TestFlightGroupCoalesces pins the singleflight mechanics
// deterministically: followers that arrive while a leader is in flight
// block until the leader finishes and share its result; the compute
// function runs exactly once.
func TestFlightGroupCoalesces(t *testing.T) {
	g := newFlightGroup()
	k := flightKey{key: cacheKey{s: 1, d: 2, k: 1}, gen: 1}

	var computes atomic.Int32
	leaderIn := make(chan struct{}) // closed when the leader is inside compute
	release := make(chan struct{})  // closed to let the leader finish
	leaderRes := []core.RouteResult{{}}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, _, shared := g.do(k, func() ([]core.RouteResult, []measure) {
			computes.Add(1)
			close(leaderIn)
			<-release
			return leaderRes, nil
		})
		if shared {
			t.Error("leader reported shared")
		}
		if len(res) != 1 {
			t.Error("leader got wrong result")
		}
	}()
	<-leaderIn

	const followers = 8
	sharedCount := atomic.Int32{}
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _, shared := g.do(k, func() ([]core.RouteResult, []measure) {
				computes.Add(1)
				return nil, nil
			})
			if shared {
				sharedCount.Add(1)
			}
			if len(res) != 1 {
				t.Error("follower got a different result than the leader")
			}
		}()
	}
	// Release the leader only once every follower is provably blocked
	// on its flight, so the collapse below is deterministic.
	g.mu.Lock()
	f := g.flights[k]
	g.mu.Unlock()
	for f.waiters.Load() != followers {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	if got := sharedCount.Load(); got != followers {
		t.Fatalf("%d/%d followers coalesced", got, followers)
	}

	// A different generation is a different flight.
	k2 := k
	k2.gen = 2
	if _, _, shared := g.do(k2, func() ([]core.RouteResult, []measure) { return leaderRes, nil }); shared {
		t.Fatal("fresh generation coalesced onto a finished flight")
	}
}

// TestFlightGroupLeaderPanic pins the failure path: a leader that
// panics out of compute must release its followers, and they fall back
// to computing for themselves instead of sharing a nil result.
func TestFlightGroupLeaderPanic(t *testing.T) {
	g := newFlightGroup()
	k := flightKey{key: cacheKey{s: 9, d: 10, k: 1}, gen: 1}
	leaderIn := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if recover() == nil {
				t.Error("leader panic did not propagate")
			}
		}()
		g.do(k, func() ([]core.RouteResult, []measure) {
			close(leaderIn)
			<-release
			panic("routing bug")
		})
	}()
	<-leaderIn

	wg.Add(1)
	var followerRes []core.RouteResult
	var followerShared bool
	go func() {
		defer wg.Done()
		followerRes, _, followerShared = g.do(k, func() ([]core.RouteResult, []measure) {
			return []core.RouteResult{{}}, nil
		})
	}()
	g.mu.Lock()
	f := g.flights[k]
	g.mu.Unlock()
	for f.waiters.Load() != 1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if followerShared {
		t.Fatal("follower claimed to share a panicked leader's result")
	}
	if len(followerRes) != 1 {
		t.Fatalf("follower fallback result = %v", followerRes)
	}
}

// TestEngineCoalescesDuplicateLoad releases a herd of goroutines onto
// one cold OD pair and checks the engine collapses them to exactly one
// route computation instead of one per caller.
func TestEngineCoalescesDuplicateLoad(t *testing.T) {
	base, fresh := sharedWorld(t)
	e := NewEngine(base.Clone(), Options{CacheSize: 1024})
	q := queries(fresh, 1)[0]

	const herd = 64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			e.Route(q.Src, q.Dst)
		}()
	}
	close(start)
	wg.Wait()

	st := e.Stats()
	if st.Queries != herd {
		t.Fatalf("queries = %d, want %d", st.Queries, herd)
	}
	// Every query either computed, coalesced onto an in-flight
	// computation, or hit the cache behind a finished one.
	if st.RouteComputations+st.CoalescedQueries+st.CacheHits != herd {
		t.Fatalf("computes %d + coalesced %d + hits %d != %d",
			st.RouteComputations, st.CoalescedQueries, st.CacheHits, herd)
	}
	// The collapse itself. A goroutine past the cache check before the
	// leader's put, and at the group after the leader's flight was
	// deleted, leads a flight of its own — and finds the answer cached
	// when it looks again as leader, so it counts as a hit above.
	if st.RouteComputations != 1 {
		t.Fatalf("route computations = %d for %d duplicate queries, want 1",
			st.RouteComputations, herd)
	}
}

// TestNoCoalesceOption verifies the opt-out leaves queries correct.
func TestNoCoalesceOption(t *testing.T) {
	base, fresh := sharedWorld(t)
	e := NewEngine(base.Clone(), Options{CacheSize: 1024, NoCoalesce: true})
	q := queries(fresh, 1)[0]
	if _, hit := e.Route(q.Src, q.Dst); hit {
		t.Fatal("first query reported shared")
	}
	if _, hit := e.Route(q.Src, q.Dst); !hit {
		t.Fatal("repeat query missed the cache")
	}
	if st := e.Stats(); st.CoalescedQueries != 0 {
		t.Fatalf("coalesced = %d with NoCoalesce", st.CoalescedQueries)
	}
}
