package core

import (
	"context"
	"math"

	"repro/internal/container"
	"repro/internal/obs"
	"repro/internal/pref"
	"repro/internal/region"
	"repro/internal/roadnet"
)

// Category classifies a query by whether its endpoints fall inside
// regions, matching the paper's evaluation breakdown.
type Category uint8

// Query categories.
const (
	InRegion    Category = iota // both endpoints inside regions
	InOutRegion                 // exactly one endpoint inside a region
	OutRegion                   // neither endpoint inside a region
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case InRegion:
		return "InRegion"
	case InOutRegion:
		return "InOutRegion"
	default:
		return "OutRegion"
	}
}

// RouteResult is the outcome of one L2R routing query.
type RouteResult struct {
	Path     roadnet.Path
	Category Category
	// UsedRegionPath reports whether the answer came from the region
	// graph (as opposed to a plain fastest-path fallback).
	UsedRegionPath bool
	// RegionPath lists the traversed region IDs when UsedRegionPath.
	RegionPath []int
	// Evidence identifies which routing mechanism produced the path —
	// the "why" behind the recommendation.
	Evidence Evidence
}

// Evidence identifies the mechanism that produced a recommended path,
// strongest trajectory evidence first.
type Evidence uint8

// Evidence values.
const (
	// EvidenceNone: no path could be found.
	EvidenceNone Evidence = iota
	// EvidenceInnerPath: a stored inner-region trajectory path
	// (Section VI Case 1, same region).
	EvidenceInnerPath
	// EvidenceExactStored: a stored trajectory path for exactly this
	// OD pair (Case 1 lookup).
	EvidenceExactStored
	// EvidencePreference: constructed by the preference-aware Dijkstra
	// from learned/transferred preferences (Algorithm 2).
	EvidencePreference
	// EvidenceStitched: stitched from stored path fragments through
	// transfer centers.
	EvidenceStitched
	// EvidenceFastest: the fastest-path fallback the paper prescribes
	// when trajectories cannot help.
	EvidenceFastest
)

// String implements fmt.Stringer.
func (e Evidence) String() string {
	switch e {
	case EvidenceInnerPath:
		return "inner-path"
	case EvidenceExactStored:
		return "exact-stored"
	case EvidencePreference:
		return "preference"
	case EvidenceStitched:
		return "stitched"
	case EvidenceFastest:
		return "fastest"
	default:
		return "none"
	}
}

// Categorize returns the paper's query category for a vertex pair.
func (r *Router) Categorize(s, d roadnet.VertexID) Category {
	inS := r.rg.RegionOf(s) >= 0
	inD := r.rg.RegionOf(d) >= 0
	switch {
	case inS && inD:
		return InRegion
	case inS || inD:
		return InOutRegion
	default:
		return OutRegion
	}
}

// Route answers an arbitrary (source, destination) query following
// Section VI: Case 1 when both endpoints lie in regions (inner-region
// lookup or region-graph routing), Case 2 otherwise (fastest-path
// approaches into the region graph). When the region machinery cannot
// help, the fastest path is returned, as in the paper.
func (r *Router) Route(s, d roadnet.VertexID) RouteResult {
	return r.route(nil, s, d)
}

// RouteCtx is Route with request tracing: when ctx carries an obs
// trace (a serving request's span tree), the routing stages — Case-2
// approach search, region-level search, inner-path splicing,
// preference application, fastest fallback — record spans under it.
// With a plain context it is exactly Route.
func (r *Router) RouteCtx(ctx context.Context, s, d roadnet.VertexID) RouteResult {
	return r.route(obs.SpanFrom(ctx), s, d)
}

// route is the shared implementation; sp is the parent span to record
// stage timings under (nil when untraced — every span call no-ops).
func (r *Router) route(sp *obs.Span, s, d roadnet.VertexID) RouteResult {
	if s == d {
		return RouteResult{Path: roadnet.Path{s}, Category: r.Categorize(s, d), Evidence: EvidenceExactStored}
	}
	rs, rd := r.rg.RegionOf(s), r.rg.RegionOf(d)
	cat := r.Categorize(s, d)

	// Case 2 (Section VI, Fig. 8): when an endpoint lies outside every
	// region, run a fastest-path search from s to d and take the first
	// (respectively last) region it visits as the candidate region; the
	// corresponding prefix (suffix) of the fastest path becomes the
	// approach path Ps (Pd). With one or no candidate region, the
	// fastest path itself is the answer, as in the paper.
	var ps, pd roadnet.Path // approach paths (may stay nil)
	sv, dv := s, d          // effective endpoints inside regions
	if rs < 0 || rd < 0 {
		c2 := sp.Start("route.case2_approach")
		fp, _, ok := r.eng.Fastest(s, d)
		c2.End()
		if !ok {
			return RouteResult{Category: cat, Evidence: EvidenceNone}
		}
		iFirst, iLast := -1, -1
		for i, v := range fp {
			if r.rg.RegionOf(v) >= 0 {
				if iFirst < 0 {
					iFirst = i
				}
				iLast = i
			}
		}
		if iFirst < 0 {
			return RouteResult{Path: fp, Category: cat, Evidence: EvidenceFastest}
		}
		if rs < 0 {
			sv = fp[iFirst]
			ps = fp[:iFirst+1]
			rs = r.rg.RegionOf(sv)
		}
		if rd < 0 {
			dv = fp[iLast]
			pd = fp[iLast:]
			rd = r.rg.RegionOf(dv)
		}
		if rs == rd {
			// Only one candidate region: the paper returns the fastest
			// path.
			return RouteResult{Path: fp, Category: cat, Evidence: EvidenceFastest}
		}
	}

	if rs == rd {
		// Same region: inner-region trajectory lookup first; otherwise
		// apply the region's dominant routing preference (majority over
		// its incident region edges), falling back to fastest when none
		// is known.
		in := sp.Start("route.inner_path")
		inner, ok := r.innerRoute(rs, sv, dv)
		in.End()
		if ok {
			return RouteResult{Path: inner, Category: cat, UsedRegionPath: true, RegionPath: []int{rs}, Evidence: EvidenceInnerPath}
		}
		pr := sp.Start("route.preference")
		p, ok := r.regionPrefRoute(rs, s, d)
		pr.End()
		if ok {
			return RouteResult{Path: p, Category: cat, UsedRegionPath: true, RegionPath: []int{rs}, Evidence: EvidencePreference}
		}
		return r.fastestFallback(sp, s, d, cat)
	}

	rg := sp.Start("route.region_search")
	regPath, ok := r.regionSearch(rs, rd)
	rg.End()
	if !ok {
		return r.fastestFallback(sp, s, d, cat)
	}

	// Map the region path to a road path, best evidence first:
	//
	//  1. An exact stored trajectory path from sv to dv (the paper's
	//     Case 1 lookup — drivers actually drove this exact OD).
	//  2. Application of the routing preference learned/transferred for
	//     the traversed region edges via the preference-aware Dijkstra
	//     (Algorithm 2 — precisely how the paper materializes paths for
	//     B-edges). At our scale transfer centers are sparse, so
	//     preference application generalizes far better than stitching
	//     stored fragments through them.
	//  3. Fragment stitching over the stored path sets (null-preference
	//     fallback).
	spl := sp.Start("route.splice")
	var road roadnet.Path
	evidence := EvidenceNone
	if exact, ok2 := r.exactStoredPath(regPath, sv, dv); ok2 {
		road = exact
		evidence = EvidenceExactStored
	} else if alt, ok2 := r.preferenceRoute(regPath, sv, dv); ok2 {
		road = alt
		evidence = EvidencePreference
	} else if stitched, ok2 := r.mapRegionPath(regPath, sv, dv); ok2 {
		// Stitching without any reliable preference can detour through
		// out-of-the-way transfer centers; past a modest detour bound
		// the fastest path is the better guess (the paper's fallback
		// whenever trajectories cannot help).
		road = stitched
		evidence = EvidenceStitched
		if fp, _, ok3 := r.eng.Fastest(sv, dv); ok3 &&
			stitched.Length(r.road) > 1.3*roadnet.Path(fp).Length(r.road) {
			road = fp
			evidence = EvidenceFastest
		}
	} else {
		spl.End()
		return r.fastestFallback(sp, s, d, cat)
	}
	spl.Annotate("evidence", evidence.String())
	spl.End()

	// Case 2: ps + road + pd in one exact-size allocation. ps and pd
	// are slices of the approach search's result, which that search
	// handed over as a copy of its own — later queries on the same
	// engine (the splice above) cannot have overwritten them.
	full := road
	if len(ps) >= 2 || len(pd) >= 2 {
		full = roadnet.Concat(ps, road, pd)
	}
	return RouteResult{Path: full, Category: cat, UsedRegionPath: true, RegionPath: regPath, Evidence: evidence}
}

func (r *Router) fastestFallback(sp *obs.Span, s, d roadnet.VertexID, cat Category) RouteResult {
	fb := sp.Start("route.fastest_fallback")
	path, _, ok := r.eng.Fastest(s, d)
	fb.End()
	if !ok {
		return RouteResult{Category: cat, Evidence: EvidenceNone}
	}
	return RouteResult{Path: path, Category: cat, Evidence: EvidenceFastest}
}

// innerRoute searches region rs's inner-region paths for one that visits
// sv before dv and returns the sub-path of the most traversed such path.
func (r *Router) innerRoute(rs int, sv, dv roadnet.VertexID) (roadnet.Path, bool) {
	var best roadnet.Path
	var bestCount int32
	for _, ip := range r.rg.InnerPaths(rs) {
		si, di := -1, -1
		for i, v := range ip.Path {
			if v == sv && si < 0 {
				si = i
			}
			if v == dv {
				di = i
			}
		}
		if si >= 0 && di > si && ip.Count > bestCount {
			best = ip.Path[si : di+1]
			bestCount = ip.Count
		}
	}
	if bestCount == 0 {
		return nil, false
	}
	return best, true
}

// regionScratch is the region-level search state one Router handle
// reuses across queries: epoch-stamped visit marks, parent links and a
// heap that is Reset, not reallocated. It belongs to the handle, never
// to the built system — Clone, and IngestClone through it, drop it and
// the copy allocates its own on its first query — and nothing a caller
// receives aliases it: regionSearch copies the path out.
type regionScratch struct {
	// seen[v] == epoch marks region v as reached by the current search,
	// which is when parent[v] is meaningful.
	seen   []uint32
	parent []int32
	epoch  uint32
	pq     *container.IndexedMinHeap
}

// regionScratch returns the handle's scratch, (re)allocated when absent
// or sized for another region count, and starts a new search in it. The
// epoch follows route.Engine's rule: on uint32 wrap a stamp from 2³²
// searches ago would read as live, so clear and restart at 1.
func (r *Router) regionScratch() *regionScratch {
	n := r.rg.NumRegions()
	sc := r.scratch
	if sc == nil || len(sc.seen) != n {
		sc = &regionScratch{
			seen:   make([]uint32, n),
			parent: make([]int32, n),
			pq:     container.NewIndexedMinHeap(n),
		}
		r.scratch = sc
	}
	sc.pq.Reset()
	sc.epoch++
	if sc.epoch == 0 {
		for i := range sc.seen {
			sc.seen[i] = 0
		}
		sc.epoch = 1
	}
	return sc
}

// regionSearch finds a region path from rs to rd on the region graph.
// Following Section VI, the search greedily prefers region edges leading
// to regions geometrically closer to the destination (fewer, more
// coherent region edges); it is a best-first search keyed on centroid
// distance, with the direct-edge shortcut the paper mandates.
func (r *Router) regionSearch(rs, rd int) ([]int, bool) {
	if rs == rd {
		return []int{rs}, true
	}
	sc := r.regionScratch()
	reach := func(v, from int) {
		sc.seen[v] = sc.epoch
		sc.parent[v] = int32(from)
	}
	target := r.rg.Centroid(rd)
	sc.pq.Push(rs, r.rg.Centroid(rs).Dist(target))
	reach(rs, rs)
	for sc.pq.Len() > 0 {
		cur, _ := sc.pq.Pop()
		if cur == rd {
			break
		}
		// Direct-edge shortcut: when an edge to the destination region
		// exists, always use it.
		if e := r.rg.FindEdge(cur, rd); e != nil {
			reach(rd, cur)
			break
		}
		for _, l := range r.rg.Links(cur) {
			o := int(l.To)
			if sc.seen[o] == sc.epoch {
				continue
			}
			reach(o, cur)
			sc.pq.Push(o, r.rg.Centroid(o).Dist(target))
		}
	}
	if sc.seen[rd] != sc.epoch {
		return nil, false
	}
	// Count the path, then write it back to front at its exact size.
	hops := 1
	for v := rd; v != rs; v = int(sc.parent[v]) {
		hops++
	}
	out := make([]int, hops)
	for v, i := rd, hops-1; i >= 0; v, i = int(sc.parent[v]), i-1 {
		out[i] = v
	}
	return out, true
}

// mapRegionPath converts a region path into a road-network path from sv
// to dv. For each region edge it picks a stored path in the needed
// direction (popularity traded off against detour, see pickEdgePath) and
// stitches gaps with short connector segments. Connectors are built with
// the region edge's routing preference when one is known — applying the
// learned preference to the whole journey across the edge — and with
// fastest paths otherwise, matching the paper's null-preference
// fallback.
func (r *Router) mapRegionPath(regPath []int, sv, dv roadnet.VertexID) (roadnet.Path, bool) {
	cur := sv
	full := roadnet.Path{sv}
	var lastEdge *region.Edge
	for i := 1; i < len(regPath); i++ {
		from, to := regPath[i-1], regPath[i]
		e := r.rg.FindEdge(from, to)
		if e == nil {
			return nil, false
		}
		lastEdge = e
		seg, ok := r.pickEdgePath(e, from, cur)
		if !ok {
			// No stored path (e.g. unmaterializable B-edge): route
			// straight to a transfer center of the next region. A region
			// can end up with none (e.g. a degenerate memberless region
			// in a loaded artifact); stitching is impossible then.
			tcs := r.rg.TransferCenters(to)
			if len(tcs) == 0 {
				return nil, false
			}
			seg2, ok2 := r.connector(e, cur, tcs[0])
			if !ok2 {
				return nil, false
			}
			full = roadnet.Concat(full, seg2)
			cur = tcs[0]
			continue
		}
		if seg[0] != cur {
			bridge, ok2 := r.connector(e, cur, seg[0])
			if !ok2 {
				return nil, false
			}
			full = roadnet.Concat(full, bridge)
		}
		full = roadnet.Concat(full, seg)
		cur = seg[len(seg)-1]
	}
	if cur != dv {
		tail, ok := r.connector(lastEdge, cur, dv)
		if !ok {
			return nil, false
		}
		full = roadnet.Concat(full, tail)
	}
	return full, true
}

// regionPrefRoute routes within one region by applying the preference
// learned from the region's own inner paths; when the region has none,
// the majority preference over its incident region edges (weighted by
// path-set size) stands in.
func (r *Router) regionPrefRoute(reg int, s, d roadnet.VertexID) (roadnet.Path, bool) {
	if res, ok := r.regionPrefs[reg]; ok {
		p, _, ok2 := r.eng.RoutePref(s, d, res.Preference.Master, res.Preference.Slave.Predicate())
		if ok2 {
			return p, true
		}
	}
	counts := make(map[pref.Preference]int)
	for _, l := range r.rg.Links(reg) {
		e := r.rg.Edges[l.Edge]
		if !e.HasPref {
			continue
		}
		w := 1 + len(e.PathsFwd) + len(e.PathsRev)
		counts[e.Pref] += w
	}
	agg, ok := majority(counts)
	if !ok {
		return nil, false
	}
	p, _, ok := r.eng.RoutePref(s, d, agg.Master, agg.Slave.Predicate())
	return p, ok
}

// majority returns the preference with the most votes, the smaller
// (master, slave) winning a tie so the answer does not depend on map
// order; ok is false when nothing voted.
func majority(counts map[pref.Preference]int) (agg pref.Preference, ok bool) {
	best := -1
	for p, c := range counts {
		if c > best || (c == best && (p.Master < agg.Master ||
			(p.Master == agg.Master && p.Slave < agg.Slave))) {
			agg, best = p, c
		}
	}
	return agg, best >= 0
}

// exactStoredPath looks for a stored trajectory path whose endpoints are
// exactly (sv, dv) on the direct region edge — the strongest evidence
// available: a past driver drove exactly this trip. The most traversed
// such path wins, with terminal fragments preferred.
func (r *Router) exactStoredPath(regPath []int, sv, dv roadnet.VertexID) (roadnet.Path, bool) {
	if len(regPath) != 2 {
		return nil, false
	}
	e := r.rg.FindEdge(regPath[0], regPath[1])
	if e == nil {
		return nil, false
	}
	var best roadnet.Path
	bestScore := -1
	for _, pi := range e.PathsFrom(regPath[0]) {
		if pi.Path[0] != sv || pi.Path[len(pi.Path)-1] != dv {
			continue
		}
		if score := int(pi.Count) + 8*int(pi.Terminal); score > bestScore {
			best, bestScore = pi.Path, score
		}
	}
	if bestScore < 0 {
		return nil, false
	}
	return best, true
}

// preferenceRoute constructs a path for a multi-hop region pair by
// applying the aggregated routing preference of the traversed region
// edges end to end — the same Algorithm 2 application that materializes
// B-edge paths. The aggregate is a majority vote over the edges'
// preferences.
func (r *Router) preferenceRoute(regPath []int, sv, dv roadnet.VertexID) (roadnet.Path, bool) {
	counts := make(map[pref.Preference]int)
	for i := 1; i < len(regPath); i++ {
		if e := r.rg.FindEdge(regPath[i-1], regPath[i]); e != nil && e.HasPref {
			counts[e.Pref]++
		}
	}
	agg, ok := majority(counts)
	if !ok {
		return nil, false
	}
	p, _, ok := r.eng.RoutePref(sv, dv, agg.Master, agg.Slave.Predicate())
	return p, ok
}

// connector builds a stitch segment between stored path fragments,
// honoring the region edge's preference when available.
func (r *Router) connector(e *region.Edge, s, d roadnet.VertexID) (roadnet.Path, bool) {
	if e != nil && e.HasPref {
		p, _, ok := r.eng.RoutePref(s, d, e.Pref.Master, e.Pref.Slave.Predicate())
		return p, ok
	}
	p, _, ok := r.eng.Fastest(s, d)
	return p, ok
}

// pickEdgePath chooses the stored path for traveling out of region
// `from` across edge e. Popularity (traversal count) and proximity of
// the path's start to the current position trade off against each
// other: a popular path is only worth a detour of a few hundred meters,
// so the score divides the count by a distance factor.
func (r *Router) pickEdgePath(e *region.Edge, from int, cur roadnet.VertexID) (roadnet.Path, bool) {
	paths := e.PathsFrom(from)
	if len(paths) == 0 {
		return nil, false
	}
	bestI := -1
	bestScore := math.Inf(-1)
	curP := r.road.Point(cur)
	for i, pi := range paths {
		d := r.road.Point(pi.Path[0]).Dist(curP)
		// Terminal fragments represent full trips between exactly this
		// region pair and weigh much more than pass-through fragments.
		score := float64(pi.Count+8*pi.Terminal) / (1 + d/300)
		if score > bestScore {
			bestI, bestScore = i, score
		}
	}
	return paths[bestI].Path, true
}
