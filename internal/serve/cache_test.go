package serve

import (
	"testing"

	"repro/internal/core"
	"repro/internal/roadnet"
)

func res(tag int) []core.RouteResult {
	return []core.RouteResult{{Path: roadnet.Path{roadnet.VertexID(tag)}}}
}

// hit looks key up at gen and reports whether it was a cache hit. A
// lookup that leads is landed at once, as a panicking leader would, so
// the entry it reserved does not stay in flight.
func hit(c *routeCache, key cacheKey, gen uint64) ([]core.RouteResult, bool) {
	r, _, fl, lead := c.lookup(key, gen)
	if lead {
		c.land(key, fl)
	}
	return r, r != nil
}

// put caches r for key at gen the way a leader does: a lookup that
// reserves the entry, then a landed flight. A key already cached at
// gen is left as it is.
func put(c *routeCache, key cacheKey, gen uint64, r []core.RouteResult) {
	if _, _, fl, lead := c.lookup(key, gen); lead {
		fl.res, fl.ok = r, true
		c.land(key, fl)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newRouteCache(4, 1) // one shard, capacity 4
	for i := 0; i < 4; i++ {
		put(c, cacheKey{s: roadnet.VertexID(i), d: 1, k: 1}, 1, res(i))
	}
	// Touch key 0 so key 1 becomes the LRU victim.
	if _, ok := hit(c, cacheKey{s: 0, d: 1, k: 1}, 1); !ok {
		t.Fatal("key 0 missing")
	}
	put(c, cacheKey{s: 100, d: 1, k: 1}, 1, res(100))
	for _, s := range []int{0, 2, 3, 100} {
		if _, ok := hit(c, cacheKey{s: roadnet.VertexID(s), d: 1, k: 1}, 1); !ok {
			t.Fatalf("key %d evicted out of order", s)
		}
	}
	if got := c.len(); got != 4 {
		t.Fatalf("len = %d want 4", got)
	}
	if _, ok := hit(c, cacheKey{s: 1, d: 1, k: 1}, 1); ok {
		t.Fatal("LRU victim survived")
	}
}

// TestCacheHitAtHeadKeepsOrder: a hit on the most recent entry is not
// relinked (it would only dirty the neighbours' cache lines); the LRU
// order behind it, and the counters, must read as if it had been.
func TestCacheHitAtHeadKeepsOrder(t *testing.T) {
	c := newRouteCache(3, 1)
	for i := 0; i < 3; i++ {
		put(c, cacheKey{s: roadnet.VertexID(i), d: 1, k: 1}, 1, res(i))
	}
	for i := 0; i < 5; i++ { // key 2 is the head
		if got, ok := hit(c, cacheKey{s: 2, d: 1, k: 1}, 1); !ok || got[0].Path[0] != 2 {
			t.Fatal("head entry missed")
		}
	}
	put(c, cacheKey{s: 100, d: 1, k: 1}, 1, res(100)) // evicts key 0, the tail
	for _, s := range []int{1, 2, 100} {
		if _, ok := hit(c, cacheKey{s: roadnet.VertexID(s), d: 1, k: 1}, 1); !ok {
			t.Fatalf("key %d evicted out of order", s)
		}
	}
	if _, ok := hit(c, cacheKey{s: 0, d: 1, k: 1}, 1); ok {
		t.Fatal("LRU victim survived")
	}
	// Four puts and the victim's lookup miss; every other lookup hits.
	if hits, misses := c.counts(); hits != 8 || misses != 5 {
		t.Fatalf("hits, misses = %d, %d want 8, 5", hits, misses)
	}
}

func TestCacheGenerationInvalidation(t *testing.T) {
	c := newRouteCache(8, 2)
	key := cacheKey{s: 5, d: 9, k: 1}
	put(c, key, 1, res(1))
	if _, ok := hit(c, key, 1); !ok {
		t.Fatal("fresh entry missed")
	}
	// Same key at a newer generation: stale, must miss, and the lookup
	// reserves the entry for the new generation rather than adding one.
	_, _, fl2, lead := c.lookup(key, 2)
	if !lead {
		t.Fatal("stale entry served across generations")
	}
	if got := c.len(); got != 1 {
		t.Fatalf("stale entry not reused: len = %d", got)
	}
	// A generation-3 lookup takes the entry over from the generation-2
	// flight; the older flight landing after it must not clobber it.
	_, _, fl3, lead := c.lookup(key, 3)
	if !lead {
		t.Fatal("generation-3 lookup joined a generation-2 flight")
	}
	fl3.res, fl3.ok = res(3), true
	c.land(key, fl3)
	fl2.res, fl2.ok = res(2), true
	c.land(key, fl2)
	got, ok := hit(c, key, 3)
	if !ok || got[0].Path[0] != 3 {
		t.Fatal("older-generation flight clobbered newer entry")
	}
	// A lookup from an older generation — a query that loaded its
	// snapshot before the swap — neither hits, leads nor waits, and
	// leaves the newer entry in place.
	if r, _, fl, lead := c.lookup(key, 2); r != nil || fl != nil || lead {
		t.Fatalf("older-generation lookup: hit %v, flight %v, lead %v", r != nil, fl != nil, lead)
	}
	got, ok = hit(c, key, 3)
	if !ok || got[0].Path[0] != 3 {
		t.Fatal("older-generation lookup dropped the newer entry")
	}
}

func TestCacheShardingSpreadsKeys(t *testing.T) {
	c := newRouteCache(1024, 8)
	for i := 0; i < 512; i++ {
		put(c, cacheKey{s: roadnet.VertexID(i), d: roadnet.VertexID(i * 3), k: 1}, 1, res(i))
	}
	empty := 0
	for _, s := range c.shards {
		if len(s.items) == 0 {
			empty++
		}
	}
	if empty > 0 {
		t.Fatalf("%d of %d shards empty after 512 inserts", empty, len(c.shards))
	}
}

func TestCacheCapacitySmallerThanShards(t *testing.T) {
	c := newRouteCache(2, 16) // shards clamp to capacity
	if len(c.shards) != 2 {
		t.Fatalf("shards = %d want 2", len(c.shards))
	}
	for i := 0; i < 64; i++ {
		put(c, cacheKey{s: roadnet.VertexID(i), d: 0, k: 1}, 1, res(i))
	}
	if got := c.len(); got > 2 {
		t.Fatalf("len = %d exceeds capacity", got)
	}
}

// TestCacheCountersRace runs the whole protocol from four goroutines
// over 32 shared keys: each iteration is one lookup, landed when it
// leads and waited on when it finds the key in flight.
func TestCacheCountersRace(t *testing.T) {
	c := newRouteCache(64, 4)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				key := cacheKey{s: roadnet.VertexID(i % 32), d: roadnet.VertexID(i % 3), k: 1}
				_, _, fl, lead := c.lookup(key, 1)
				switch {
				case lead:
					fl.res, fl.ok = res(i), true
					c.land(key, fl)
				case fl != nil:
					if r, _, ok := fl.wait(); !ok || len(r) != 1 {
						t.Error("waiter did not share the landed answer")
					}
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	// lookup is called, and counted, exactly once per loop iteration.
	if hits, misses := c.counts(); hits+misses != 4*500 {
		t.Fatalf("hit+miss = %d want %d", hits+misses, 4*500)
	}
}
