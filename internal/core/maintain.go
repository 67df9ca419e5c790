package core

import (
	"time"

	"repro/internal/pref"
	"repro/internal/region"
	"repro/internal/transfer"
)

// This file implements the heavy half of online maintenance: a full
// re-learn + re-transduction of the router over all evidence its region
// graph has accumulated. Where Ingest (incremental.go) relearns only
// the edges a batch touched and never re-runs the transfer, Retransduce
// redoes phases 2a–3 of the offline pipeline — preference learning,
// transduction over the similarity graph, B-edge materialization —
// against the current path sets, by running the very function (derive)
// that Build runs them with. Run it off the hot path on an IngestClone
// and publish the result through the serving layer's snapshot swap
// (internal/maint drives exactly this loop).

// RetransduceStats summarizes one maintenance rebuild.
type RetransduceStats struct {
	// Regions, TEdges and BEdges describe the region graph the rebuild
	// ran over (the partition is fixed; edge kinds can have shifted
	// since the last build through B→T upgrades).
	Regions int
	TEdges  int
	BEdges  int
	// LearnedPrefs counts T-edges with a re-learned preference;
	// Transferred and Null count B-edges the transduction labeled and
	// could not label.
	LearnedPrefs int
	Transferred  int
	Null         int
	// MetricsCustomized counts CH metrics the closing PrepareMetrics
	// pass added, customized or adopted.
	MetricsCustomized int
	// TransferRows, TransferNNZ and SolveIterations size the Eq. 3
	// system the transduction solved (NNZ: the entries an explicit
	// matrix would store) and the work its solve took.
	TransferRows    int
	TransferNNZ     int
	SolveIterations int
	// Where the rebuild's time went. TransferTime is the whole
	// transduction; TransferAssembleTime (featurize, find the
	// similarity windows) and TransferSolveTime are its two phases.
	LearnTime            time.Duration
	TransferTime         time.Duration
	TransferAssembleTime time.Duration
	TransferSolveTime    time.Duration
	MaterializeTime      time.Duration
	Elapsed              time.Duration
}

// Retransduce re-runs preference learning, transduction and B-edge
// materialization over the router's accumulated evidence, keeping the
// region partition fixed. The learner samples at most the LearnMaxPaths
// the router was built with (Meta().Build), as Ingest does; of opt only
// Workers counts, and it only bounds the parallelism (0 means
// GOMAXPROCS, as in Build).
//
// The result converges: a router maintained by Ingest batches and then
// Retransduced equals one rebuilt from scratch (BuildWithRegions) over
// the same partition and the union of all evidence — T-edge path sets
// and transfer centers accumulate exactly (region.AddPaths), the
// transfer system's row order is canonical by region pair, and every
// derived preference is recomputed here from the full path sets rather
// than patched incrementally. Retransduce is also idempotent, which is
// what makes crash recovery simple: recovering an engine onto either
// the pre- or post-rebuild snapshot and re-running maintenance lands
// on the same router.
//
// Both hold across Save and Load: an artifact stores the road bit for
// bit, so a loaded router is a fixed point of Retransduce as the router
// it was saved from is.
//
// Like Ingest, Retransduce mutates built state: run it on an
// IngestClone, where every mutated edge is privatized first, so the
// parent keeps serving reads race-free while the rebuild runs.
func (r *Router) Retransduce(opt Options) RetransduceStats {
	opt = opt.withDefaults()
	start := time.Now()

	// New trajectory evidence may have landed in region pairs that had
	// no edge at all when ConnectBFS last ran — and, conversely, B→T
	// upgrades can have rerouted connectivity. Re-running ConnectBFS is
	// idempotent (it only adds B-edges where a pair has none) and keeps
	// the region graph connected for the transduction below.
	r.rg.ConnectBFS()
	st := r.derive(opt.Workers)
	st.Elapsed = time.Since(start)
	return st
}

// derive is the paper's §V plus materialization over the region graph
// as it stands: everything a router holds that is a function of the
// path sets, recomputed from scratch (package doc, "One derivation").
// Build runs it on a freshly built region graph, Retransduce on one
// grown by ingests. workers is positive; the learner's path-sample cap
// is the one in r.meta.Build. Elapsed is the caller's to fill.
func (r *Router) derive(workers int) RetransduceStats {
	var st RetransduceStats
	st.Regions = r.rg.NumRegions()
	st.TEdges = r.rg.TEdgeCount()
	st.BEdges = r.rg.BEdgeCount()

	// Phase 2a: learn every T-edge and region preference from the full
	// path sets (parallel). The region map is rebound, not patched — an
	// IngestClone shares it with its parent. Region preferences below
	// minConfidence are dropped: the fastest-path behaviour stands in.
	// It runs on a pass fork: every search is a CCH query, and
	// PrepareMetrics below adopts the overlay metrics it applies.
	t0 := time.Now()
	pass := r.eng.PassFork()
	learned := learnAll(pass, r.rg, workers, r.meta.Build.LearnMaxPaths)
	r.regionPrefs = learnRegions(pass, r.rg, workers, r.meta.Build.LearnMaxPaths)
	for id, lr := range r.regionPrefs {
		if lr.Similarity < minConfidence {
			delete(r.regionPrefs, id)
		}
	}
	st.LearnTime = time.Since(t0)
	st.LearnedPrefs = len(learned)

	// Reset every edge's derived state through EdgeForUpdate, never in
	// place — on a maintenance clone the edges are shared with the
	// generation that is serving. T-edges get this pass's fit and, when
	// it clears the confidence gate, apply it; one whose fit and applied
	// preference both stand is left shared. B-edges are cleared — their
	// materialized paths and transferred preferences derive from a
	// previous transduction, if there was one, and are rebuilt below.
	// Clearing before transfer.Run also means Materialize's direct
	// writes land on privately owned edges.
	for _, e := range r.rg.Edges {
		id := int(e.ID)
		switch e.Kind {
		case region.TEdge:
			fit, fitted := learned[id]
			var applied pref.Preference
			confident := fitted && fit.Similarity >= minConfidence
			if confident {
				applied = fit.Preference
			}
			was, wasFitted := e.Fit()
			if was == fit && wasFitted == fitted && e.Pref == applied && e.HasPref == confident {
				continue
			}
			me := r.rg.EdgeForUpdate(id)
			me.SetFit(fit, fitted)
			me.Pref, me.HasPref = applied, confident
		case region.BEdge:
			me := r.rg.EdgeForUpdate(id)
			me.PathsFwd, me.PathsRev = nil, nil
			me.Pref, me.HasPref = pref.Preference{}, false
			me.SetFit(pref.Result{}, false)
		}
	}

	// Phase 2b: transfer preferences to B-edges over the similarity
	// graph. Only confidently learned preferences serve as labels;
	// low-similarity fits would propagate noise.
	t0 = time.Now()
	res := r.transduce(workers)
	st.TransferTime = time.Since(t0)
	st.Transferred = len(res.Pref)
	st.Null = len(res.Null)
	st.TransferRows, st.TransferNNZ, st.SolveIterations = res.Rows, res.NNZ, res.SolveIterations
	st.TransferAssembleTime, st.TransferSolveTime = res.AssembleTime, res.SolveTime

	// Phase 3: materialize B-edge paths on the hierarchy.
	t0 = time.Now()
	transfer.Materialize(r.rg, res, &pathFinder{eng: pass.ForkCH()})
	st.MaterializeTime = time.Since(t0)

	// Pre-customize every preference metric the router routes on, so
	// first queries never pay customization inline —
	// preferences may now combine ⟨master, slave⟩ pairs never routed on
	// before. PrepareMetrics only adds metric versions, so serving forks
	// reading the previous table stay race-free (the same contract the
	// ingest write path relies on).
	st.MetricsCustomized = r.prepareMetrics(pass)

	// Refresh pipeline stats so Stats() describes the derived model.
	r.stats.Regions = st.Regions
	r.stats.TEdges = st.TEdges
	r.stats.BEdges = st.BEdges
	r.stats.LearnedPrefs = st.LearnedPrefs
	r.stats.TransferredOK = st.Transferred
	r.stats.NullBEdges = st.Null
	r.stats.LearnTime = st.LearnTime
	r.stats.TransferTime = st.TransferTime
	r.stats.MaterializeTime = st.MaterializeTime
	return st
}
