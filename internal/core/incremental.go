package core

import (
	"cmp"
	"time"

	"repro/internal/region"
	"repro/internal/traj"
)

// IngestOptions tunes incremental trajectory ingestion.
type IngestOptions struct {
	// SkipMapMatching trusts trajectory ground-truth paths (same switch
	// as Options.SkipMapMatching).
	SkipMapMatching bool
	// MinConfidence is the training similarity a re-learned preference
	// must reach to be applied to its edge; below it the edge falls back
	// to fastest-path behaviour (default: the Options.MinConfidence the
	// router was built with, else 0.7).
	MinConfidence float64
	// RebuildThreshold is the staleness ratio above which
	// RebuildRecommended is set (default 0.2).
	RebuildThreshold float64
}

func (o IngestOptions) withDefaults(b BuildInfo) IngestOptions {
	if o.MinConfidence == 0 { // b's is zero in an artifact older than BuildInfo
		o.MinConfidence = cmp.Or(b.MinConfidence, 0.7)
	}
	if o.RebuildThreshold == 0 {
		o.RebuildThreshold = 0.2
	}
	return o
}

// IngestStats reports one incremental update.
type IngestStats struct {
	region.UpdateStats
	// Relearned counts edges whose preference was re-fit.
	Relearned int
	// LearnSearches counts the shortest-path searches the re-fits ran;
	// LearnSkipped the ones the learner proved redundant instead (see
	// package pref). Together they are the (3 + 2·|slaves|) searches per
	// sampled path the paper's procedure calls for. LearnHierarchy is
	// how many of LearnSearches ran on the contraction hierarchy.
	LearnSearches  int
	LearnSkipped   LearnSkipped
	LearnHierarchy int
	// RebuildRecommended is set when the share of new traffic outside
	// existing regions exceeds the threshold — the signal that the
	// fixed clustering has gone stale and a full Build is due (the
	// paper's "time-varying region graph" future work).
	RebuildRecommended bool
	// Elapsed is the total ingest wall time.
	Elapsed time.Duration
}

// LearnSkipped splits the searches a relearn did not run by the rule
// that made them redundant.
type LearnSkipped struct {
	// Reused: the master-only path stays feasible under the slave
	// restriction, so it is the restricted answer too.
	Reused int
	// Bounded: the ⟨master, slave⟩ combination's similarity upper bound
	// cannot beat the incumbent, before its first search or once the
	// searches already run have tightened it.
	Bounded int
}

// Ingest feeds new trajectories into the built router without a full
// rebuild: region assignment stays fixed, T-edge path sets and
// inner-region paths grow, B-edges covered by the new data upgrade to
// T-edges, and the preferences of exactly the touched edges are
// re-learned. Trajectories are matched and paired, and preferences
// sampled and gated, under the options the router was built with
// (Meta().Build) unless opt overrides them. This implements the
// supported portion of the paper's "real-time region graph updates"
// future work.
func (r *Router) Ingest(ts []*traj.Trajectory, opt IngestOptions) IngestStats {
	opt = opt.withDefaults(r.meta.Build)
	start := time.Now()

	paths := matchedPaths(r.road, r.idx, ts, Options{SkipMapMatching: opt.SkipMapMatching, MapMatch: r.meta.Build.MapMatch, Workers: 1})

	var st IngestStats
	st.UpdateStats = r.rg.AddPaths(paths, r.meta.Build.Region)
	st.RebuildRecommended = st.StalenessRatio() > opt.RebuildThreshold

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
		if res.Similarity >= opt.MinConfidence {
			e.Pref = res.Preference
			e.HasPref = true
		} else {
			e.HasPref = false
		}
		st.Relearned++
	}
	st.LearnSearches = learner.Searches.Run
	st.LearnSkipped = LearnSkipped{Reused: learner.Searches.Reused, Bounded: learner.Searches.Bounded}
	st.LearnHierarchy = learner.Searches.Hierarchy
	r.stats.TEdges = r.rg.TEdgeCount()
	r.stats.BEdges = r.rg.BEdgeCount()
	st.Elapsed = time.Since(start)
	return st
}
