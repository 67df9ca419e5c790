package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// TestFlightGroupCoalesces pins the coalescing mechanics of the cache
// deterministically: lookups that arrive while a leader is in flight
// block until the leader lands and share its result; the leader is the
// only caller that computes.
func TestFlightGroupCoalesces(t *testing.T) {
	c := newRouteCache(8, 1)
	key := cacheKey{s: 1, d: 2, k: 1}
	leaderRes := []core.RouteResult{{}}

	_, _, fl, lead := c.lookup(key, 1)
	if !lead {
		t.Fatal("first lookup did not lead")
	}

	const followers = 8
	var sharedCount atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, f, lead := c.lookup(key, 1)
			if lead || f == nil {
				t.Error("a lookup of a key in flight did not wait")
				return
			}
			res, _, ok := f.wait()
			if ok {
				sharedCount.Add(1)
			}
			if len(res) != 1 {
				t.Error("follower got a different result than the leader")
			}
		}()
	}
	// Land only once every follower is provably blocked on the flight,
	// so the collapse below is deterministic.
	for fl.waiters.Load() != followers {
		runtime.Gosched()
	}
	fl.res, fl.ok = leaderRes, true
	c.land(key, fl)
	wg.Wait()

	if got := sharedCount.Load(); got != followers {
		t.Fatalf("%d/%d followers coalesced", got, followers)
	}
	if res, ok := hit(c, key, 1); !ok || len(res) != 1 {
		t.Fatal("the landed answer is not cached")
	}
	// A different generation is a different flight.
	if _, _, _, lead := c.lookup(key, 2); !lead {
		t.Fatal("fresh generation coalesced onto a finished flight")
	}
}

// TestFlightGroupLeaderPanic pins the failure path: a leader that
// panics out of compute must still land its flight, releasing its
// followers, and they fall back to computing for themselves instead of
// sharing a nil result; the entry is dropped, so the next lookup leads.
func TestFlightGroupLeaderPanic(t *testing.T) {
	c := newRouteCache(8, 1)
	key := cacheKey{s: 9, d: 10, k: 1}
	_, _, fl, lead := c.lookup(key, 1)
	if !lead {
		t.Fatal("first lookup did not lead")
	}
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
		defer c.land(key, fl)
		<-release
		panic("routing bug")
	}()

	wg.Add(1)
	var followerShared bool
	go func() {
		defer wg.Done()
		_, _, f, _ := c.lookup(key, 1)
		_, _, followerShared = f.wait()
	}()
	for fl.waiters.Load() != 1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if followerShared {
		t.Fatal("follower claimed to share a panicked leader's result")
	}
	if _, _, _, lead := c.lookup(key, 1); !lead {
		t.Fatal("a panicked leader's entry was not dropped")
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
	// Every query is one cache lookup, counted once.
	if st.CacheHits+st.CacheMisses != herd {
		t.Fatalf("hits %d + misses %d != %d", st.CacheHits, st.CacheMisses, herd)
	}
	// Every query either computed, coalesced onto an in-flight
	// computation, or hit the cache behind a landed one.
	if st.RouteComputations+st.CoalescedQueries+st.CacheHits != herd {
		t.Fatalf("computes %d + coalesced %d + hits %d != %d",
			st.RouteComputations, st.CoalescedQueries, st.CacheHits, herd)
	}
	// The collapse itself: the lookup that reserves the entry and the
	// lookups that find it reserved or landed hold the same shard lock,
	// so no caller can miss both.
	if st.RouteComputations != 1 {
		t.Fatalf("route computations = %d for %d duplicate queries, want 1",
			st.RouteComputations, herd)
	}
}
