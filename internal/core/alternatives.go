package core

import (
	"context"
	"slices"
	"sort"

	"repro/internal/obs"
	"repro/internal/roadnet"
)

// RouteK answers a query with up to k alternative recommendations,
// best first. The paper's routing module emits "Recommended Paths"
// (plural, Fig. 2); its Case 1 picks the stored path "with the largest
// number of trajectory traversals" — RouteK generalizes that to a
// popularity-ranked list. The first result always equals Route(s, d);
// the alternatives come from, in order of evidence strength:
//
//  1. other stored trajectory paths between the endpoints (distinct
//     paths real drivers took, ranked by traversal count), and
//  2. lowest-cost paths under each remaining travel-cost weight, which
//     diversify the list when stored paths are scarce.
//
// Duplicates are removed; fewer than k results may be returned.
func (r *Router) RouteK(s, d roadnet.VertexID, k int) []RouteResult {
	return r.routeK(nil, s, d, k)
}

// RouteKCtx is RouteK with request tracing — the primary route's
// stages plus a route.alternatives span record under the trace carried
// by ctx, exactly as RouteCtx does for Route.
func (r *Router) RouteKCtx(ctx context.Context, s, d roadnet.VertexID, k int) []RouteResult {
	return r.routeK(obs.SpanFrom(ctx), s, d, k)
}

func (r *Router) routeK(sp *obs.Span, s, d roadnet.VertexID, k int) []RouteResult {
	first := r.route(sp, s, d)
	out := []RouteResult{first}
	if k <= 1 || len(first.Path) == 0 || s == d {
		return out
	}
	alt := sp.Start("route.alternatives")
	defer alt.End()
	add := func(p roadnet.Path, ev Evidence, usedRegion bool, regPath []int) bool {
		if len(p) < 2 || p[0] != s || p[len(p)-1] != d {
			return false
		}
		// out holds at most k results, so a scan is the dedup.
		for _, o := range out {
			if slices.Equal(o.Path, p) {
				return false
			}
		}
		out = append(out, RouteResult{
			Path: p, Category: first.Category,
			UsedRegionPath: usedRegion, RegionPath: regPath,
			Evidence: ev,
		})
		return len(out) >= k
	}

	// 1. Stored trajectory alternatives, most traversed first.
	for _, alt := range r.storedAlternatives(s, d) {
		if add(alt, EvidenceExactStored, true, first.RegionPath) {
			return out
		}
	}

	// 2. Cost-diverse alternatives: one lowest-cost path per weight.
	for _, w := range []roadnet.Weight{roadnet.TT, roadnet.DI, roadnet.FC} {
		if p, _, ok := r.eng.Route(s, d, w); ok {
			if add(p, EvidenceFastest, false, nil) {
				return out
			}
		}
	}
	return out
}

// storedAlternatives collects distinct stored paths between s and d:
// inner-region paths when both endpoints share a region, and region-
// edge path-set entries when the endpoints' regions are adjacent in
// the region graph. Results are ordered by traversal count.
func (r *Router) storedAlternatives(s, d roadnet.VertexID) []roadnet.Path {
	rs, rd := r.rg.RegionOf(s), r.rg.RegionOf(d)
	if rs < 0 || rd < 0 {
		return nil
	}
	type cand struct {
		p     roadnet.Path
		count int
	}
	var cands []cand
	if rs == rd {
		for _, ip := range r.rg.InnerPaths(rs) {
			if sub, ok := subPath(ip.Path, s, d); ok {
				cands = append(cands, cand{p: sub, count: int(ip.Count)})
			}
		}
	} else if e := r.rg.FindEdge(rs, rd); e != nil {
		for _, pi := range e.PathsFrom(rs) {
			if sub, ok := subPath(pi.Path, s, d); ok {
				cands = append(cands, cand{p: sub, count: int(pi.Count)})
			}
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].count > cands[j].count })
	paths := make([]roadnet.Path, len(cands))
	for i, c := range cands {
		paths[i] = c.p
	}
	return paths
}

// subPath returns the portion of p from the first occurrence of s to
// the following occurrence of d, if both appear in that order.
func subPath(p roadnet.Path, s, d roadnet.VertexID) (roadnet.Path, bool) {
	is := -1
	for i, v := range p {
		if v == s {
			is = i
			break
		}
	}
	if is < 0 {
		return nil, false
	}
	for j := is + 1; j < len(p); j++ {
		if p[j] == d {
			return p[is : j+1], true
		}
	}
	return nil, false
}
