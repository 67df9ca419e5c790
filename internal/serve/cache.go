package serve

import (
	"sync"

	"repro/internal/core"
	"repro/internal/roadnet"
)

// cacheKey identifies one route query: endpoints plus the number of
// alternatives requested (RouteK(k=1) and RouteK(k=3) are different
// answers).
type cacheKey struct {
	s, d roadnet.VertexID
	k    int32
}

// hash mixes the key into a shard selector (fnv-1a over the 12 bytes).
func (k cacheKey) hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, w := range [3]uint32{uint32(k.s), uint32(k.d), uint32(k.k)} {
		for i := 0; i < 4; i++ {
			h ^= uint64(byte(w >> (8 * i)))
			h *= prime
		}
	}
	return h
}

// measure is what a reply reports of a path besides its vertices. Both
// values are functions of the path and the road network alone, so they
// are walked once, when the answer is computed, and cached with it: an
// answer is a query's results plus, index for index, their measures.
// The two slices travel side by side — through the cache, a flight and
// routeK — as separate values rather than one struct: a six-word struct
// is passed through memory, which costs the hit path a tenth of its time.
type measure struct{ lengthM, travelTimeS float64 }

// appendMeasures appends the measure of each res[i].Path on road: one
// fused walk per path, zero for a path of fewer than two vertices.
func appendMeasures(dst []measure, road *roadnet.Graph, res []core.RouteResult) []measure {
	for i := range res {
		l, t := res[i].Path.Measures(road)
		dst = append(dst, measure{lengthM: l, travelTimeS: t})
	}
	return dst
}

// cacheEntry is one cached answer, tagged with the snapshot generation
// that produced it. Entries from older generations are dead: the router
// they were computed on has been replaced, so they count as misses and
// are dropped on sight.
type cacheEntry struct {
	key  cacheKey
	gen  uint64
	res  []core.RouteResult
	meas []measure // nil-free: len(meas) == len(res)
	prev *cacheEntry
	next *cacheEntry
}

// cacheShard is one lock domain: a map plus an intrusive LRU list
// (head = most recent). The hit and miss counts live here, under mu,
// rather than in cache-wide atomics: a lookup already owns this
// shard's cache line, and a counter every client writes is one more
// line bouncing between cores on each hit.
type cacheShard struct {
	mu     sync.Mutex
	items  map[cacheKey]*cacheEntry
	head   *cacheEntry
	tail   *cacheEntry
	cap    int
	hits   uint64
	misses uint64
}

func (s *cacheShard) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *cacheShard) pushFront(e *cacheEntry) {
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// routeCache is a sharded LRU with generation-based invalidation.
type routeCache struct {
	shards []*cacheShard
}

func newRouteCache(capacity, shards int) *routeCache {
	if shards > capacity {
		shards = capacity
	}
	if shards < 1 {
		shards = 1
	}
	per := (capacity + shards - 1) / shards
	c := &routeCache{shards: make([]*cacheShard, shards)}
	for i := range c.shards {
		c.shards[i] = &cacheShard{items: make(map[cacheKey]*cacheEntry, per), cap: per}
	}
	return c
}

func (c *routeCache) shard(k cacheKey) *cacheShard {
	return c.shards[k.hash()%uint64(len(c.shards))]
}

// get returns the cached answer for key at generation gen. An entry
// from an older generation is removed and reported as a miss. A hit is
// always counted; a miss only with countMiss, so a caller looking a
// second time for the same query (a flight's leader) leaves the miss
// count at one per query.
func (c *routeCache) get(key cacheKey, gen uint64, countMiss bool) ([]core.RouteResult, []measure, bool) {
	s := c.shard(key)
	s.mu.Lock()
	e, ok := s.items[key]
	if ok && e.gen == gen {
		// The hottest key of a skewed workload is already at the
		// head; relinking it would only dirty its neighbours' lines.
		if s.head != e {
			s.unlink(e)
			s.pushFront(e)
		}
		res, meas := e.res, e.meas
		s.hits++
		s.mu.Unlock()
		return res, meas, true
	}
	if ok { // stale generation
		s.unlink(e)
		delete(s.items, key)
	}
	if countMiss {
		s.misses++
	}
	s.mu.Unlock()
	return nil, nil, false
}

// counts returns the lookups answered and refused so far.
func (c *routeCache) counts() (hits, misses uint64) {
	for _, s := range c.shards {
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		s.mu.Unlock()
	}
	return hits, misses
}

// put inserts (or refreshes) the answer computed at generation gen,
// evicting the least recently used entry when the shard is full. A
// stale racer — put of an older generation after a newer one landed —
// is ignored.
func (c *routeCache) put(key cacheKey, gen uint64, res []core.RouteResult, meas []measure) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.items[key]; ok {
		if gen < e.gen {
			return
		}
		e.gen, e.res, e.meas = gen, res, meas
		s.unlink(e)
		s.pushFront(e)
		return
	}
	e := &cacheEntry{key: key, gen: gen, res: res, meas: meas}
	s.items[key] = e
	s.pushFront(e)
	if len(s.items) > s.cap {
		old := s.tail
		s.unlink(old)
		delete(s.items, old.key)
	}
}

// generationLag returns cur minus the oldest generation among live
// entries (0 when empty or all current). Stale entries die lazily on
// lookup, so a non-zero lag is normal right after a swap; a lag that
// stays large means cold keys are pinning pre-swap answers' slots.
func (c *routeCache) generationLag(cur uint64) uint64 {
	var lag uint64
	for _, s := range c.shards {
		s.mu.Lock()
		for _, e := range s.items {
			if e.gen < cur && cur-e.gen > lag {
				lag = cur - e.gen
			}
		}
		s.mu.Unlock()
	}
	return lag
}

// len returns the live entry count across shards.
func (c *routeCache) len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}
