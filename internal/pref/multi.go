package pref

import (
	"sort"

	"repro/internal/roadnet"
)

// This file implements one of the paper's explicitly named future-work
// items: "the modeling of more than one preference for each T-edge"
// (Section VIII). Fig. 6(a) shows that while >70% of T-edges are
// explained by one preference, a tail is not; LearnMulti captures that
// tail by clustering a path set by per-path preference and learning one
// representative preference per sufficiently large cluster.

// MultiResult is a set of preferences for one T-edge with their support.
type MultiResult struct {
	// Prefs is ordered by descending support.
	Prefs []WeightedPreference
	// Coverage is the share of paths explained by the returned
	// preferences at similarity ≥ the learner threshold.
	Coverage float64
}

// WeightedPreference is a preference with the fraction of the path set
// it explains.
type WeightedPreference struct {
	Preference Preference
	Support    float64
	// Similarity is the mean Eq. 1 similarity on the cluster's paths.
	Similarity float64
}

// Dominant returns the highest-support preference; ok is false for an
// empty result.
func (m MultiResult) Dominant() (Preference, bool) {
	if len(m.Prefs) == 0 {
		return Preference{}, false
	}
	return m.Prefs[0].Preference, true
}

// LearnMulti learns up to maxPrefs preferences from a path set. Paths
// are first assigned a per-path preference, grouped, and groups holding
// at least minSupport of the set each get a jointly learned preference.
// Groups below the support floor fold into the nearest larger group (by
// preference Jaccard over activated features) before the joint pass.
func (l *Learner) LearnMulti(paths []roadnet.Path, maxPrefs int, minSupport float64) MultiResult {
	return learnMulti(l.sample(paths), l.Learn, maxPrefs, minSupport)
}

// learnMulti is LearnMulti over an already drawn sample, with the
// single-preference learner as a parameter (the exactness tests run it
// over the exhaustive reference).
func learnMulti(sample []roadnet.Path, learn func([]roadnet.Path) Result, maxPrefs int, minSupport float64) MultiResult {
	if maxPrefs <= 0 {
		maxPrefs = 2
	}
	if minSupport <= 0 {
		minSupport = 0.2
	}
	if len(sample) == 0 {
		return MultiResult{}
	}

	// Group paths by their individually learned preference.
	groups := make(map[Preference][]roadnet.Path)
	for _, p := range sample {
		res := learn([]roadnet.Path{p})
		groups[res.Preference] = append(groups[res.Preference], p)
	}

	type grp struct {
		pref  Preference
		paths []roadnet.Path
	}
	var ordered []grp
	for pf, ps := range groups {
		ordered = append(ordered, grp{pref: pf, paths: ps})
	}
	sort.Slice(ordered, func(i, j int) bool {
		if len(ordered[i].paths) != len(ordered[j].paths) {
			return len(ordered[i].paths) > len(ordered[j].paths)
		}
		// Deterministic tie-break on the preference encoding.
		a, b := ordered[i].pref, ordered[j].pref
		if a.Master != b.Master {
			return a.Master < b.Master
		}
		return a.Slave < b.Slave
	})

	// Fold sub-threshold groups into the most similar retained group.
	floor := int(minSupport * float64(len(sample)))
	if floor < 1 {
		floor = 1
	}
	var kept []grp
	for _, g := range ordered {
		if len(kept) < maxPrefs && len(g.paths) >= floor {
			kept = append(kept, g)
			continue
		}
		if len(kept) == 0 {
			kept = append(kept, g)
			continue
		}
		best, bestSim := 0, -1.0
		for i, k := range kept {
			if s := prefFeatureJaccard(g.pref, k.pref); s > bestSim {
				best, bestSim = i, s
			}
		}
		kept[best].paths = append(kept[best].paths, g.paths...)
	}

	// Joint learning per retained cluster.
	out := MultiResult{}
	explained := 0
	for _, g := range kept {
		res := learn(g.paths)
		out.Prefs = append(out.Prefs, WeightedPreference{
			Preference: res.Preference,
			Support:    float64(len(g.paths)) / float64(len(sample)),
			Similarity: res.Similarity,
		})
		explained += len(g.paths)
	}
	sort.Slice(out.Prefs, func(i, j int) bool { return out.Prefs[i].Support > out.Prefs[j].Support })
	out.Coverage = float64(explained) / float64(len(sample))
	return out
}

// prefFeatureJaccard measures preference similarity over the activated
// {master, slave} feature pair (the transfer package has the canonical
// matrix encoding; this local version avoids the import cycle).
func prefFeatureJaccard(a, b Preference) float64 {
	inter := 0
	if a.Master == b.Master {
		inter++
	}
	if a.Slave == b.Slave {
		inter++
	}
	return float64(inter) / float64(4-inter)
}
