package core

import (
	"sort"

	"repro/internal/pref"
	"repro/internal/region"
	"repro/internal/roadnet"
)

// This file integrates multi-preference T-edges — the paper's future-
// work item "modeling of more than one preference for each T-edge"
// (Section VIII) — into the router. EnableMultiPreferences fits up to k
// preferences per T-edge with pref.LearnMulti; RouteK then offers one
// constructed path per secondary preference as an additional ranked
// alternative, so the ~30% of T-edges Fig. 6(a) shows are not explained
// by a single preference still surface their minority route.

// MultiPrefStats summarizes a multi-preference fit.
type MultiPrefStats struct {
	// EdgesFitted counts T-edges processed.
	EdgesFitted int
	// MultiEdges counts T-edges with two or more retained preferences.
	MultiEdges int
	// MeanCoverage is the mean share of each path set explained by the
	// retained preferences.
	MeanCoverage float64
}

// EnableMultiPreferences fits up to maxPrefs preferences per T-edge
// (minSupport is the minimum share of the edge's path set a secondary
// preference must explain; 0 picks the learner default). The fit is
// stored on the router and consulted by RouteK. Calling it again
// replaces the previous fit.
func (r *Router) EnableMultiPreferences(maxPrefs int, minSupport float64) MultiPrefStats {
	learner := r.learner()
	defer r.learners.Put(learner)
	r.multi = make(map[int]pref.MultiResult)
	var st MultiPrefStats
	var coverage float64
	ids := make([]int, 0, len(r.rg.Edges))
	for _, e := range r.rg.Edges {
		if e.Kind == region.TEdge {
			ids = append(ids, e.ID)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		e := r.rg.Edges[id]
		var paths []roadnet.Path
		for _, pi := range e.PathsFwd {
			paths = append(paths, pi.Path)
		}
		for _, pi := range e.PathsRev {
			paths = append(paths, pi.Path)
		}
		if len(paths) == 0 {
			continue
		}
		m := learner.LearnMulti(paths, maxPrefs, minSupport)
		if len(m.Prefs) == 0 {
			continue
		}
		r.multi[id] = m
		st.EdgesFitted++
		coverage += m.Coverage
		if len(m.Prefs) > 1 {
			st.MultiEdges++
		}
	}
	if st.EdgesFitted > 0 {
		st.MeanCoverage = coverage / float64(st.EdgesFitted)
	}
	return st
}

// MultiPreferences returns the multi-preference fit for a T-edge, if
// EnableMultiPreferences ran and retained one.
func (r *Router) MultiPreferences(edgeID int) (pref.MultiResult, bool) {
	m, ok := r.multi[edgeID]
	return m, ok
}

// multiAlternatives constructs one path per secondary preference of the
// region edge connecting the endpoints' regions (if any). Used by
// RouteK after stored alternatives.
func (r *Router) multiAlternatives(s, d roadnet.VertexID) []roadnet.Path {
	if r.multi == nil {
		return nil
	}
	rs, rd := r.rg.RegionOf(s), r.rg.RegionOf(d)
	if rs < 0 || rd < 0 || rs == rd {
		return nil
	}
	e := r.rg.FindEdge(rs, rd)
	if e == nil {
		return nil
	}
	m, ok := r.multi[e.ID]
	if !ok || len(m.Prefs) < 2 {
		return nil
	}
	var out []roadnet.Path
	for _, wp := range m.Prefs[1:] { // secondary preferences only
		p, _, ok := r.eng.RoutePref(s, d, wp.Preference.Master, wp.Preference.Slave.Predicate())
		if ok {
			out = append(out, p)
		}
	}
	return out
}
