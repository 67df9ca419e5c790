package core

import (
	"time"

	"repro/internal/pref"
	"repro/internal/region"
	"repro/internal/traj"
)

// IngestOptions tunes incremental trajectory ingestion.
type IngestOptions struct {
	// SkipMapMatching trusts trajectory ground-truth paths (same switch
	// as Options.SkipMapMatching).
	SkipMapMatching bool
}

// rebuildThreshold is the staleness ratio above which an ingest sets
// RebuildRecommended.
const rebuildThreshold = 0.2

// IngestStats reports one incremental update.
type IngestStats struct {
	region.UpdateStats
	// Relearned counts edges whose preference was re-fit.
	Relearned int
	// Learn accounts for the (3 + 2·|slaves|) shortest-path searches per
	// sampled path the re-fits' procedure calls for: the ones run (and
	// of those, the ones answered on the contraction hierarchy) and the
	// ones the learner proved redundant instead (see package pref).
	Learn pref.SearchStats
	// RebuildRecommended is set when the share of new traffic outside
	// existing regions exceeds the threshold — the signal that the
	// fixed clustering has gone stale and a full Build is due (the
	// paper's "time-varying region graph" future work).
	RebuildRecommended bool
	// Elapsed is the total ingest wall time.
	Elapsed time.Duration
}

// Ingest feeds new trajectories into the built router without a full
// rebuild: region assignment stays fixed, T-edge path sets and
// inner-region paths grow, B-edges covered by the new data upgrade to
// T-edges, and the preferences of exactly the touched edges are
// re-learned. Trajectories are paired, and preferences sampled, under
// the options the router was built with (Meta().Build), and gated at
// the build's fixed confidence. This
// implements the supported portion of the paper's "real-time region
// graph updates" future work.
func (r *Router) Ingest(ts []*traj.Trajectory, opt IngestOptions) IngestStats {
	start := time.Now()

	paths := matchedPaths(r.road, r.idx, ts, opt.SkipMapMatching, 1)

	var st IngestStats
	st.UpdateStats = r.rg.AddPaths(paths, r.meta.Build.Region)
	st.RebuildRecommended = st.StalenessRatio() > rebuildThreshold

	// Re-learn preferences for the touched edges only, on a learner from
	// the lineage's pool: its scratch outlives the call without riding
	// along on the published router. Its engine is a plain fork: a
	// restricted search rides the hierarchy only on a resident metric.
	learner := r.learner()
	defer r.learners.Put(learner)
	if r.meta.Build.LearnMaxPaths > 0 {
		learner.MaxPaths = r.meta.Build.LearnMaxPaths
	}
	for _, id := range st.TouchedEdges {
		e := r.rg.EdgeForUpdate(id)
		ps := learner.paths[:0]
		for _, pi := range e.PathsFwd {
			ps = append(ps, pi.Path)
		}
		for _, pi := range e.PathsRev {
			ps = append(ps, pi.Path)
		}
		learner.paths = ps
		if len(ps) == 0 {
			continue
		}
		res := learner.Learn(ps)
		e.SetFit(res, true)
		if res.Similarity >= minConfidence {
			e.Pref = res.Preference
			e.HasPref = true
		} else {
			e.HasPref = false
		}
		st.Relearned++
	}
	st.Learn = learner.Searches
	r.stats.TEdges = r.rg.TEdgeCount()
	r.stats.BEdges = r.rg.BEdgeCount()
	st.Elapsed = time.Since(start)
	return st
}
