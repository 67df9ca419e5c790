package serve

import (
	"sync"
	"sync/atomic"

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

// flight is an answer still being computed: the caller whose lookup
// reserved the entry (the leader) computes, stores the answer and ok,
// and lands the flight; callers that find it in flight wait on done and
// share the answer. ok records that the leader's compute finished — if
// it panicked, waiters must not trust the answer. waiters counts the
// callers that joined (observability and tests). done is a WaitGroup of
// one, not a channel: with the answer's measures riding in the flight,
// a channel beside it would make a miss allocate more than it did
// without them.
type flight struct {
	done    sync.WaitGroup
	res     []core.RouteResult
	meas    []measure
	ok      bool
	waiters atomic.Int32
}

// wait blocks until the flight lands and returns its answer; ok is
// false when the leader panicked out of compute.
func (f *flight) wait() ([]core.RouteResult, []measure, bool) {
	f.done.Wait()
	return f.res, f.meas, f.ok
}

// cacheEntry is one cached answer, tagged with the snapshot generation
// that produced it, or — while fl is non-nil — the reservation of a
// flight computing it. Entries from older generations are dead: the
// router they were computed on has been replaced, so they count as
// misses and the next lookup at the newer generation reserves them.
type cacheEntry struct {
	key  cacheKey
	gen  uint64
	res  []core.RouteResult
	meas []measure // nil-free once landed: len(meas) == len(res)
	fl   *flight
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

// routeCache is a sharded LRU with generation-based invalidation, and
// the coalescer of concurrent duplicate queries (singleflight): the
// first miss for a key reserves its entry with a flight, and callers
// that arrive while it is in flight share the leader's answer instead
// of borrowing a router clone and repeating the search. Real road
// traffic is heavily duplicate-skewed — a hot OD pair going cold
// (startup, post-ingest swap) would otherwise stampede the engine with
// identical searches. A flight is reserved per generation, so a query
// never latches onto a computation running against an older router.
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

// lookup answers a query for key at generation gen in one visit to the
// key's shard, which counts it once, as a hit or a miss:
//
//   - hit: res is the cached answer (never empty);
//   - wait: the entry is in flight at gen — fl is its flight, lead is
//     false, and the caller waits on it;
//   - lead: anything else missing at gen reserves the entry with a new
//     flight fl in the same critical section, and the caller must land
//     it, even if its compute panics;
//   - an entry of a newer generation (the caller loaded its snapshot
//     before a swap) is left alone: res and fl are nil, and the caller
//     computes without the cache.
func (c *routeCache) lookup(key cacheKey, gen uint64) (res []core.RouteResult, meas []measure, fl *flight, lead bool) {
	s := c.shard(key)
	s.mu.Lock()
	e, ok := s.items[key]
	switch {
	case ok && e.gen == gen && e.fl == nil:
		// The hottest key of a skewed workload is already at the
		// head; relinking it would only dirty its neighbours' lines.
		if s.head != e {
			s.unlink(e)
			s.pushFront(e)
		}
		res, meas = e.res, e.meas
		s.hits++
		s.mu.Unlock()
		return res, meas, nil, false
	case ok && e.gen == gen:
		fl = e.fl
		fl.waiters.Add(1)
	case ok && e.gen > gen:
	default: // absent, or an older generation's answer or flight
		if ok {
			s.unlink(e)
		} else {
			e = &cacheEntry{key: key}
			s.items[key] = e
		}
		fl = new(flight)
		fl.done.Add(1)
		e.gen, e.res, e.meas, e.fl = gen, nil, nil, fl
		s.pushFront(e)
		if len(s.items) > s.cap {
			old := s.tail
			s.unlink(old)
			delete(s.items, old.key)
		}
		lead = true
	}
	s.misses++
	s.mu.Unlock()
	return nil, nil, fl, lead
}

// land settles the flight a lookup of key made this caller lead and
// releases its waiters. With fl.ok the answer in fl is stored in the
// entry, which turns its later lookups into hits; without it (compute
// panicked) the entry is dropped, so the waiters and later callers
// compute for themselves. An entry that was evicted, or reserved again
// by a newer generation, while fl was in flight is not touched.
func (c *routeCache) land(key cacheKey, fl *flight) {
	s := c.shard(key)
	s.mu.Lock()
	if e, ok := s.items[key]; ok && e.fl == fl {
		e.fl = nil
		if fl.ok {
			e.res, e.meas = fl.res, fl.meas
		} else {
			s.unlink(e)
			delete(s.items, key)
		}
	}
	s.mu.Unlock()
	fl.done.Done()
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

// generationLag returns cur minus the oldest generation among live
// entries (0 when empty or all current). Stale entries are replaced
// lazily on lookup, so a non-zero lag is normal right after a swap; a
// lag that stays large means cold keys are pinning pre-swap answers'
// slots.
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
