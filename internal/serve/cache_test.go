package serve

import (
	"testing"

	"repro/internal/core"
	"repro/internal/roadnet"
)

func res(tag int) []core.RouteResult {
	return []core.RouteResult{{Path: roadnet.Path{roadnet.VertexID(tag)}}}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newRouteCache(4, 1) // one shard, capacity 4
	for i := 0; i < 4; i++ {
		c.put(cacheKey{s: roadnet.VertexID(i), d: 1, k: 1}, 1, res(i), nil)
	}
	// Touch key 0 so key 1 becomes the LRU victim.
	if _, _, ok := c.get(cacheKey{s: 0, d: 1, k: 1}, 1, true); !ok {
		t.Fatal("key 0 missing")
	}
	c.put(cacheKey{s: 100, d: 1, k: 1}, 1, res(100), nil)
	if _, _, ok := c.get(cacheKey{s: 1, d: 1, k: 1}, 1, true); ok {
		t.Fatal("LRU victim survived")
	}
	for _, s := range []int{0, 2, 3, 100} {
		if _, _, ok := c.get(cacheKey{s: roadnet.VertexID(s), d: 1, k: 1}, 1, true); !ok {
			t.Fatalf("key %d evicted out of order", s)
		}
	}
	if got := c.len(); got != 4 {
		t.Fatalf("len = %d want 4", got)
	}
}

// TestCacheHitAtHeadKeepsOrder: a hit on the most recent entry is not
// relinked (it would only dirty the neighbours' cache lines); the LRU
// order behind it, and the counters, must read as if it had been.
func TestCacheHitAtHeadKeepsOrder(t *testing.T) {
	c := newRouteCache(3, 1)
	for i := 0; i < 3; i++ {
		c.put(cacheKey{s: roadnet.VertexID(i), d: 1, k: 1}, 1, res(i), nil)
	}
	for i := 0; i < 5; i++ { // key 2 is the head
		if got, _, ok := c.get(cacheKey{s: 2, d: 1, k: 1}, 1, true); !ok || got[0].Path[0] != 2 {
			t.Fatal("head entry missed")
		}
	}
	c.put(cacheKey{s: 100, d: 1, k: 1}, 1, res(100), nil) // evicts key 0, the tail
	if _, _, ok := c.get(cacheKey{s: 0, d: 1, k: 1}, 1, true); ok {
		t.Fatal("LRU victim survived")
	}
	for _, s := range []int{1, 2, 100} {
		if _, _, ok := c.get(cacheKey{s: roadnet.VertexID(s), d: 1, k: 1}, 1, true); !ok {
			t.Fatalf("key %d evicted out of order", s)
		}
	}
	if hits, misses := c.counts(); hits != 8 || misses != 1 {
		t.Fatalf("hits, misses = %d, %d want 8, 1", hits, misses)
	}
}

func TestCacheGenerationInvalidation(t *testing.T) {
	c := newRouteCache(8, 2)
	key := cacheKey{s: 5, d: 9, k: 1}
	c.put(key, 1, res(1), nil)
	if _, _, ok := c.get(key, 1, true); !ok {
		t.Fatal("fresh entry missed")
	}
	// Same key at a newer generation: stale, must miss and be dropped.
	if _, _, ok := c.get(key, 2, true); ok {
		t.Fatal("stale entry served across generations")
	}
	if got := c.len(); got != 0 {
		t.Fatalf("stale entry not dropped: len = %d", got)
	}
	// A put from an older generation must not clobber a newer entry.
	c.put(key, 3, res(3), nil)
	c.put(key, 2, res(2), nil)
	got, _, ok := c.get(key, 3, true)
	if !ok || got[0].Path[0] != 3 {
		t.Fatal("older-generation put clobbered newer entry")
	}
}

func TestCacheShardingSpreadsKeys(t *testing.T) {
	c := newRouteCache(1024, 8)
	for i := 0; i < 512; i++ {
		c.put(cacheKey{s: roadnet.VertexID(i), d: roadnet.VertexID(i * 3), k: 1}, 1, res(i), nil)
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
		c.put(cacheKey{s: roadnet.VertexID(i), d: 0, k: 1}, 1, res(i), nil)
	}
	if got := c.len(); got > 2 {
		t.Fatalf("len = %d exceeds capacity", got)
	}
}

func TestCacheCountersRace(t *testing.T) {
	c := newRouteCache(64, 4)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				key := cacheKey{s: roadnet.VertexID(i % 32), d: roadnet.VertexID(w), k: 1}
				if _, _, ok := c.get(key, 1, true); !ok {
					c.put(key, 1, res(i), nil)
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	// get is called exactly once per loop iteration.
	if hits, misses := c.counts(); hits+misses != 4*500 {
		t.Fatalf("hit+miss = %d want %d", hits+misses, 4*500)
	}
}
