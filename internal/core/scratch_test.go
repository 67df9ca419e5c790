package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/roadnet"
	"repro/internal/worldgen"
)

var (
	scratchCity     *Router
	scratchCityOnce sync.Once
)

// cityRouter builds one CH-backed router for the tests and benchmarks
// that need a real city: worldgen's ci city, or its bench-scale city
// where ci would take too long (the race detector, -short).
func cityRouter(tb testing.TB, scale string) *Router {
	tb.Helper()
	build := func() *Router {
		w := worldgen.Build(worldgen.MustScale(scale, 1))
		r, err := Build(w.Road, w.Train, Options{SkipMapMatching: true})
		if err != nil {
			tb.Fatalf("Build(%s): %v", scale, err)
		}
		return r
	}
	if scale != worldgen.ScaleCI {
		return build()
	}
	scratchCityOnce.Do(func() { scratchCity = build() })
	if scratchCity == nil {
		tb.Fatal("the ci city failed to build in an earlier test")
	}
	return scratchCity
}

// resultHash digests everything a caller holds of one answer: each
// result's road path, region path and evidence.
func resultHash(rs []RouteResult) uint64 {
	const prime = 1099511628211
	h := uint64(len(rs))
	for _, r := range rs {
		h = h*prime ^ pathHash(r.Path)
		for _, v := range r.RegionPath {
			h = h*prime ^ uint64(v)
		}
		h = h*prime ^ uint64(r.Evidence)
	}
	return h
}

// pathHash is an FNV-64a over the vertex sequence.
func pathHash(p roadnet.Path) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range p {
		h ^= uint64(uint32(v))
		h *= prime
	}
	return h
}

// TestResultsNeverAliasScratch holds answers across 1,000 further
// queries on the same handle and checks they did not change under the
// holder: a path handed out must be the caller's own, never a view of
// the query's unpack buffer, the region-search scratch or the Case-2
// approach path. It holds a Case-2 answer spliced from ps + road + pd,
// region-routed Case-1 answers, and every RouteK(k=4) result — routeK
// keeps its first result across three more searches on the same engine.
func TestResultsNeverAliasScratch(t *testing.T) {
	scale := worldgen.ScaleCI
	if raceEnabled || testing.Short() {
		scale = worldgen.ScaleBench
	}
	r := cityRouter(t, scale).Clone()
	n := r.Road().NumVertices()
	rng := rand.New(rand.NewSource(17))
	od := func() (roadnet.VertexID, roadnet.VertexID) {
		return roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n))
	}

	type held struct {
		s, d roadnet.VertexID
		res  []RouteResult
		hash uint64
	}
	var hold []held
	case2, case1, multi := 0, 0, 0
	for tries := 0; tries < 20000 && (case2 < 3 || case1 < 3 || multi < 3); tries++ {
		s, d := od()
		res := r.Route(s, d)
		spliced := res.UsedRegionPath && len(res.RegionPath) >= 2
		switch {
		case spliced && res.Category != InRegion && case2 < 3:
			case2++
			hold = append(hold, held{s, d, []RouteResult{res}, 0})
		case spliced && res.Category == InRegion && case1 < 3:
			case1++
			hold = append(hold, held{s, d, []RouteResult{res}, 0})
		case multi < 3:
			if ks := r.RouteK(s, d, 4); len(ks) >= 3 {
				multi++
				hold = append(hold, held{s, d, ks, 0})
			}
		}
	}
	if case2 == 0 || case1 == 0 || multi == 0 {
		t.Fatalf("found %d Case-2, %d Case-1 and %d RouteK answers to hold; need some of each", case2, case1, multi)
	}
	for i := range hold {
		hold[i].hash = resultHash(hold[i].res)
	}
	for i := 0; i < 1000; i++ {
		s, d := od()
		if i%4 == 0 {
			r.RouteK(s, d, 4)
		} else {
			r.Route(s, d)
		}
	}
	for _, h := range hold {
		if got := resultHash(h.res); got != h.hash {
			t.Errorf("answer for %d->%d (%d results, evidence %v) changed under its holder after 1,000 further queries", h.s, h.d, len(h.res), h.res[0].Evidence)
		}
		// And the handle still answers the same thing.
		again := []RouteResult{r.Route(h.s, h.d)}
		if len(h.res) > 1 {
			again = r.RouteK(h.s, h.d, 4)
		}
		if got := resultHash(again); got != h.hash {
			t.Errorf("%d->%d answered differently after 1,000 further queries", h.s, h.d)
		}
	}
}

// TestRouteAllocations bounds what a cold route allocates on the ci
// city: the region path, the road path, and little else — the region
// search runs in the handle's scratch and the CCH query in the fork's.
func TestRouteAllocations(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("allocation counts are for the un-instrumented ci city")
	}
	r := cityRouter(t, worldgen.ScaleCI).Clone()
	n := r.Road().NumVertices()
	rng := rand.New(rand.NewSource(23))
	ods := make([][2]roadnet.VertexID, 1000)
	for i := range ods {
		ods[i] = [2]roadnet.VertexID{roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n))}
	}
	for _, od := range ods { // first use allocates the scratch and grows the unpack buffer
		r.Route(od[0], od[1])
	}
	i := 0
	mean := testing.AllocsPerRun(len(ods), func() {
		od := ods[i%len(ods)]
		i++
		r.Route(od[0], od[1])
	})
	t.Logf("Router.Route: %.2f allocations per cold route (mean over %d uniform ODs)", mean, len(ods))
	if mean > 5 {
		t.Errorf("Router.Route allocates %.2f times per route, want <= 5", mean)
	}
}

// TestRegionSearchEpochWrap places the region-search scratch two
// searches short of the uint32 epoch wrap and checks the next four
// searches — between regions with no direct edge, so the answer comes
// out of the visit marks — against a fresh handle's, each with every
// stamp set to a value the epoch may take right after the wrap.
func TestRegionSearchEpochWrap(t *testing.T) {
	_, r, _, _ := buildWorld(t, 300, true)
	nr := r.RegionGraph().NumRegions()
	fresh := r.Clone()
	var pairs [][2]int
	for rs := nr - 1; rs >= 0 && len(pairs) < 4; rs -= 3 {
		for rd := 0; rd < nr; rd++ {
			if p, ok := fresh.regionSearch(rs, rd); ok && len(p) >= 3 {
				pairs = append(pairs, [2]int{rs, rd})
				break
			}
		}
	}
	if len(pairs) < 4 {
		t.Fatalf("only %d region pairs without a direct edge among %d regions", len(pairs), nr)
	}
	r.regionSearch(pairs[0][0], pairs[0][1]) // allocates the scratch
	sc := r.scratch
	// Stale stamps of 1 are what a search 2³² ago left behind; stamps of
	// 0 are what a never-reached region holds, live if the epoch were
	// ever allowed to be 0.
	for _, stale := range []uint32{1, 0} {
		sc.epoch = math.MaxUint32 - 2
		for i, p := range pairs {
			// The region graph is small and dense: one search re-stamps
			// most of it, so the stale state is laid down afresh each time.
			for j := range sc.seen {
				sc.seen[j] = stale
				sc.parent[j] = int32((j + 1) % nr) // what a stale stamp would vouch for
			}
			got, ok := r.regionSearch(p[0], p[1])
			want, wantOK := fresh.regionSearch(p[0], p[1])
			if ok != wantOK || len(got) != len(want) {
				t.Fatalf("stale stamp %d, search %d (%d->%d): %v %v, fresh handle %v %v", stale, i, p[0], p[1], got, ok, want, wantOK)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("stale stamp %d, search %d (%d->%d): %v, fresh handle %v", stale, i, p[0], p[1], got, want)
				}
			}
		}
		if sc.epoch != 2 {
			t.Fatalf("epoch after wrapping = %d, want 2 (restart at 1, one more search)", sc.epoch)
		}
	}
}
