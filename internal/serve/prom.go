package serve

import (
	"bytes"
	"io"
	"maps"
	"net/http"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// writeProm emits the engine's full metric catalog, as rd read it, onto
// pw, every sample carrying labels (the fleet handler passes
// tenant={name}).
func (e *Engine) writeProm(pw *obs.PromWriter, rd *reading, labels ...obs.Label) {
	st := &rd.st

	pw.Gauge("l2r_uptime_seconds", "Time since the engine was created.", st.Uptime.Seconds(), labels...)
	pw.Counter("l2r_queries_total", "Routing queries answered (Route/RouteK).", float64(st.Queries), labels...)
	pw.Counter("l2r_cache_hits_total", "Route cache hits.", float64(st.CacheHits), labels...)
	pw.Counter("l2r_cache_misses_total", "Route cache misses.", float64(st.CacheMisses), labels...)
	pw.Gauge("l2r_cache_entries", "Route cache occupancy.", float64(st.CacheEntries), labels...)
	pw.Counter("l2r_route_computations_total", "Route searches actually run (not absorbed by cache or coalescing).", float64(st.RouteComputations), labels...)
	pw.Counter("l2r_coalesced_queries_total", "Queries that shared a concurrent duplicate's in-flight computation.", float64(st.CoalescedQueries), labels...)
	pw.Gauge("l2r_snapshot_generation", "Current snapshot generation (starts at 1, +1 per ingest or publish).", float64(st.SnapshotGeneration), labels...)
	pw.Counter("l2r_ingests_total", "Copy-on-write ingest swaps.", float64(st.Ingests), labels...)
	pw.Counter("l2r_ingested_trajectories_total", "Trajectories carried by ingest swaps.", float64(st.IngestedTrajectories), labels...)
	for _, oc := range []struct {
		outcome string
		n       int
	}{{"run", st.LearnSearches.Run}, {"reused", st.LearnSearches.Reused}, {"bounded", st.LearnSearches.Bounded}, {"memo", st.LearnSearches.Memo}} {
		pw.Counter("l2r_learn_searches_total", "Shortest-path searches ingest relearns called for, by outcome: run, reused (master-only path feasible under the slave restriction), bounded (combination could not beat the incumbent, before its first search or part-way once earlier searches tightened the bound) or memo (an earlier relearn of the router lineage ran it for the same ground-truth path).",
			float64(oc.n), append(withLabels(labels), obs.Label{Name: "outcome", Value: oc.outcome})...)
	}
	pw.Counter("l2r_learn_searches_hierarchy_total", "Of the run ingest relearn searches, those answered on the contraction hierarchy; the rest ran on plain Dijkstra.", float64(st.LearnSearches.Hierarchy), labels...)
	pw.Gauge("l2r_ch_elimination_tree_height", "Vertices on the longest elimination-tree chain of the served contraction order — the most one side of a shortest-path query visits.", float64(rd.chHeight), labels...)
	pw.Gauge("l2r_ch_climb_arcs_mean", "Mean up-arcs one side of a shortest-path query relaxes on its climb, over all start vertices.", rd.chArcs, labels...)
	pw.Gauge("l2r_ch_metric_bytes", "Heap bytes of the served router's resident customized metrics: 18 per skeleton arc for each scalar weight, and each masked metric's delta against its master.", float64(rd.chBytes), labels...)
	pw.Gauge("l2r_ingest_lag_seconds", "Wall time the last ingest took from batch arrival to snapshot publication.", st.IngestLag.Seconds(), labels...)
	pw.Gauge("l2r_since_last_swap_seconds", "Time since the last snapshot publication.", st.SinceLastSwap.Seconds(), labels...)
	pw.Gauge("l2r_staleness_ratio", "Cumulative out-of-region share of ingested path vertices — how far the fixed region partition trails the traffic.", st.StalenessRatio, labels...)
	pw.Gauge("l2r_last_staleness_ratio", "Out-of-region vertex share of the last ingest batch.", st.LastStalenessRatio, labels...)
	pw.Counter("l2r_out_of_region_vertices_total", "Ingested path vertices that belong to no region.", float64(st.OutOfRegionVertices), labels...)
	pw.Counter("l2r_ingested_vertices_total", "Ingested path vertices.", float64(st.IngestedVertices), labels...)

	pw.Histogram("l2r_route_latency_seconds", "Routing query latency.", rd.all, labels...)
	for c, h := range rd.perCat {
		if h.Count() == 0 {
			continue
		}
		pw.Histogram("l2r_route_category_latency_seconds", "Routing query latency by paper query category.",
			h, append(withLabels(labels), obs.Label{Name: "category", Value: core.Category(c).String()})...)
	}

	if st.Stream != nil {
		ss := st.Stream
		pw.Gauge("l2r_stream_active_sessions", "Vehicles with an open streaming session.", float64(ss.ActiveSessions), labels...)
		pw.Counter("l2r_stream_points_total", "GPS points accepted by the streaming pipeline.", float64(ss.PointsIn), labels...)
		pw.Counter("l2r_stream_points_late_total", "Points dropped as older than the reorder window.", float64(ss.PointsLate), labels...)
		pw.Counter("l2r_stream_points_duplicate_total", "Points dropped as exact duplicates.", float64(ss.PointsDuplicate), labels...)
		pw.Counter("l2r_stream_points_outlier_total", "Points dropped as teleport-distance outliers.", float64(ss.PointsOutlier), labels...)
		pw.Counter("l2r_stream_segments_closed_total", "Trajectory segments closed by gap, dwell, teleport or explicit close.", float64(ss.SegmentsClosed), labels...)
		pw.Counter("l2r_stream_segments_dropped_total", "Closed segments too short to ingest.", float64(ss.SegmentsDropped), labels...)
		pw.Gauge("l2r_stream_queue_depth", "Closed-trajectory batch queue occupancy.", float64(ss.QueueDepth), labels...)
		pw.Gauge("l2r_stream_queue_capacity", "Closed-trajectory batch queue capacity.", float64(ss.QueueCapacity), labels...)
		pw.Counter("l2r_stream_queue_drops_total", "Trajectories rejected by a full queue or a road-network swap.", float64(ss.QueueDrops), labels...)
		pw.Counter("l2r_stream_flushes_total", "Batcher-driven ingest swaps.", float64(ss.Flushes), labels...)
		pw.Counter("l2r_stream_flushed_trajectories_total", "Trajectories carried by batcher flushes.", float64(ss.FlushedTrajectories), labels...)
	}

	if st.Durability != nil {
		ds := st.Durability
		pw.Counter("l2r_wal_records_total", "Batches appended to the write-ahead log since process start.", float64(ds.WALRecords), labels...)
		pw.Counter("l2r_wal_trajectories_total", "Trajectories appended to the write-ahead log since process start.", float64(ds.WALTrajectories), labels...)
		pw.Gauge("l2r_wal_bytes", "Write-ahead log on-disk size (reset by checkpoint rotation).", float64(ds.WALBytes), labels...)
		pw.Counter("l2r_wal_append_failures_total", "Batches that could not be journaled and serve from memory only — alert on any increase.", float64(ds.WALAppendFailures), labels...)
		pw.Gauge("l2r_wal_seq", "Next WAL sequence number — batches ever durably acknowledged in this lineage.", float64(rd.walSeq), labels...)
		pw.Counter("l2r_checkpoints_total", "Checkpoints written by this process.", float64(ds.Checkpoints), labels...)
		pw.Counter("l2r_checkpoint_failures_total", "Failed checkpoint or log-rotation attempts.", float64(ds.CheckpointFailures), labels...)
		pw.Gauge("l2r_checkpoint_age_seconds", "Age of the newest checkpoint this process wrote (0 before the first).", ds.SinceLastCheckpoint.Seconds(), labels...)
		pw.Gauge("l2r_checkpoint_generation", "Artifact save generation the next checkpoint advances from.", float64(ds.CheckpointGeneration), labels...)
		pw.Gauge("l2r_recovered_from_checkpoint", "Whether start-up recovery loaded a checkpoint.", boolGauge(ds.RecoveredFromCheckpoint), labels...)
		pw.Gauge("l2r_replayed_records", "WAL records replayed at start-up.", float64(ds.ReplayedRecords), labels...)
		pw.Gauge("l2r_wal_torn_tail_truncated", "Whether recovery truncated a torn final record.", boolGauge(ds.TornTailTruncated), labels...)
	}

	if st.Quality != nil {
		qs := st.Quality
		pw.Gauge("l2r_quality_sample_rate", "Configured fraction of ingested trajectories shadow-scored.", qs.SampleRate, labels...)
		pw.Counter("l2r_quality_shadow_offered_total", "Trajectories presented to the shadow scorer by the ingest path.", float64(qs.Offered), labels...)
		pw.Counter("l2r_quality_shadow_sampled_total", "Trajectories deterministically sampled for shadow scoring.", float64(qs.Sampled), labels...)
		pw.Counter("l2r_quality_shadow_scored_total", "Shadow scores completed.", float64(qs.Scored), labels...)
		pw.Counter("l2r_quality_shadow_dropped_total", "Samples dropped by a full scoring queue — the scorer never blocks ingest.", float64(qs.Dropped), labels...)
		pw.Counter("l2r_quality_shadow_skipped_total", "Samples unusable for scoring (degenerate or off-network paths).", float64(qs.Skipped), labels...)
		pw.Gauge("l2r_quality_queue_depth", "Shadow-scoring queue occupancy.", float64(qs.QueueDepth), labels...)
		pw.Gauge("l2r_quality_exemplars", "Worst-scoring ODs currently held for /debug/quality.", float64(qs.Exemplars), labels...)
		if qs.Total.Scores > 0 {
			pw.Gauge("l2r_quality_eq1_pct", "Cumulative mean Eq. 1 shadow-score accuracy (served vs driven path).", qs.Total.Eq1Pct, labels...)
			pw.Gauge("l2r_quality_eq4_pct", "Cumulative mean Eq. 4 shadow-score accuracy (served vs driven path).", qs.Total.Eq4Pct, labels...)
			pw.Gauge("l2r_quality_window_eq1_pct", "Rolling-window mean Eq. 1 shadow-score accuracy.", qs.Total.WindowEq1Pct, labels...)
			pw.Gauge("l2r_quality_window_eq4_pct", "Rolling-window mean Eq. 4 shadow-score accuracy.", qs.Total.WindowEq4Pct, labels...)
			pw.Gauge("l2r_quality_window_worst_eq1_pct", "Worst Eq. 1 score in the rolling window.", qs.WindowWorstEq1Pct, labels...)
		}
		for _, key := range slices.Sorted(maps.Keys(qs.PerCategory)) {
			cell := qs.PerCategory[key]
			cl := append(withLabels(labels), obs.Label{Name: "category", Value: key})
			pw.Gauge("l2r_quality_category_eq1_pct", "Cumulative mean Eq. 1 accuracy by paper query category.", cell.Eq1Pct, cl...)
			pw.Gauge("l2r_quality_category_window_eq1_pct", "Rolling-window mean Eq. 1 accuracy by paper query category.", cell.WindowEq1Pct, cl...)
		}
		for _, key := range slices.Sorted(maps.Keys(qs.PerDistance)) {
			cell := qs.PerDistance[key]
			cl := append(withLabels(labels), obs.Label{Name: "bucket", Value: key})
			pw.Gauge("l2r_quality_distance_eq1_pct", "Cumulative mean Eq. 1 accuracy by trip-distance bucket.", cell.Eq1Pct, cl...)
			pw.Gauge("l2r_quality_distance_window_eq1_pct", "Rolling-window mean Eq. 1 accuracy by trip-distance bucket.", cell.WindowEq1Pct, cl...)
		}
		pw.Gauge("l2r_drift_tv", "Learned-vs-served preference divergence: total-variation distance between the served snapshot's evidence-weighted preference distribution and the engine's baseline, taken at construction and on every publish.", qs.DriftTV, labels...)
		pw.Gauge("l2r_drift_baseline_generation", "Snapshot generation the drift baseline was captured at.", float64(qs.BaselineGeneration), labels...)
		pw.Gauge("l2r_drift_region_coverage", "Fraction of regions with any T-edge (trajectory-backed) evidence.", qs.RegionCoverage, labels...)
		pw.Gauge("l2r_drift_evidence_age_seconds", "Time since the newest trajectory fold-in (0 before the first).", qs.EvidenceAge.Seconds(), labels...)
		pw.Gauge("l2r_drift_cache_generation_lag", "Generations the oldest live route-cache entry trails the served snapshot.", float64(qs.CacheGenerationLag), labels...)
	}

	if st.Maintenance != nil {
		ms := st.Maintenance
		pw.Counter("l2r_maint_rebuilds_total", "Maintenance clone-rebuild-publish cycles completed.", float64(ms.Rebuilds), labels...)
		pw.Counter("l2r_maint_rebuild_failures_total", "Maintenance rebuild cycles that failed and published nothing.", float64(ms.RebuildFailures), labels...)
		pw.Counter("l2r_maint_accumulated_total", "Paths the engine's ingests folded in since the engine started; the start-up replay is not counted.", float64(ms.Accumulated), labels...)
		pw.Gauge("l2r_maint_evidence_since_rebuild", "Paths the engine's ingests folded in since the installed model, the start-up replay's included until the first publish — compared against the evidence trigger threshold.", float64(ms.EvidenceSinceRebuild), labels...)
		pw.Gauge("l2r_maint_drift_tv", "Preference drift of the served snapshot against the engine's baseline, taken at construction and on every publish (maintenance rebuild or external Publish) — compared against the drift trigger threshold.", ms.DriftTV, labels...)
		pw.Gauge("l2r_maint_last_rebuild_seconds", "Duration of the most recent maintenance rebuild (0 before the first).", ms.LastRebuildTime.Seconds(), labels...)
		pw.Gauge("l2r_maint_last_tedges_added", "Region pairs that gained their first trajectory-backed edge in the most recent rebuild.", float64(ms.LastTEdgesAdded), labels...)
		pw.Gauge("l2r_maint_last_transferred", "B-edges the most recent rebuild's transduction labeled.", float64(ms.LastTransferred), labels...)
		for _, ph := range []struct {
			phase string
			d     time.Duration
		}{
			{"learn", ms.LastLearnTime},
			{"transfer_assemble", ms.LastTransferAssembleTime},
			{"transfer_solve", ms.LastTransferSolveTime},
			{"materialize", ms.LastMaterializeTime},
		} {
			pw.Gauge("l2r_maint_last_phase_seconds", "Where the most recent maintenance rebuild's time went, by phase (they sum to at most l2r_maint_last_rebuild_seconds).",
				ph.d.Seconds(), append(withLabels(labels), obs.Label{Name: "phase", Value: ph.phase})...)
		}
		pw.Gauge("l2r_maint_last_solve_iterations", "Solver iterations, summed over preference columns, of the most recent rebuild's transduction.", float64(ms.LastSolveIterations), labels...)
	}

	if e.trc != nil {
		ts := e.trc.Stats()
		pw.Counter("l2r_traces_total", "Request traces recorded.", float64(ts.Traces), labels...)
		pw.Counter("l2r_slow_traces_total", "Traces over the slow-query threshold.", float64(ts.SlowTraces), labels...)
		pw.Gauge("l2r_tracing_enabled", "Whether request tracing is recording.", boolGauge(ts.Enabled), labels...)
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// withLabels returns labels with its capacity clamped, so appends by
// different callers never alias the same backing array.
func withLabels(labels []obs.Label) []obs.Label {
	return labels[:len(labels):len(labels)]
}

// stageHelp documents the per-stage histogram metric once.
const stageHelp = "Duration of one traced request stage (cache.lookup, route.region_search, wal.append, ...)."

// WriteMetrics writes the engine's Prometheus text-format exposition —
// the same bytes GET /metrics serves — for embedding the engine behind
// a custom HTTP front-end.
func (e *Engine) WriteMetrics(w io.Writer) error {
	pw := obs.NewPromWriter(w)
	rd := e.read()
	e.writeProm(pw, &rd)
	pw.StageHistograms("l2r_stage_duration_seconds", stageHelp, e.trc)
	writeBuildInfoProm(pw)
	writeRuntimeProm(pw)
	return pw.Flush()
}

// WriteMetrics writes the fleet's Prometheus exposition: every tenant
// engine's catalog labeled tenant={name}, the shared per-stage
// histograms once, and process runtime gauges once.
func (f *Fleet) WriteMetrics(w io.Writer) error {
	pw := obs.NewPromWriter(w)
	reg := f.registry()
	pw.Gauge("l2r_tenants", "Registered tenants.", float64(len(reg)))
	merged := &obs.Histogram{}
	for _, name := range slices.Sorted(maps.Keys(reg)) {
		e := reg[name].eng
		rd := e.read()
		e.writeProm(pw, &rd, obs.Label{Name: "tenant", Value: name})
		merged.Merge(rd.all)
	}
	// One unlabeled fleet-wide latency histogram: per-tenant quantiles
	// cannot be averaged after the fact, so the merged distribution is
	// the only honest source of fleet p50/p99/p999.
	pw.Histogram("l2r_fleet_route_latency_seconds", "Routing query latency merged across all tenants.", merged)
	pw.StageHistograms("l2r_stage_duration_seconds", stageHelp, f.opt.Tracer)
	writeBuildInfoProm(pw)
	writeRuntimeProm(pw)
	return pw.Flush()
}

// writeRuntimeProm emits process runtime gauges: goroutines, heap and
// GC health. ReadMemStats briefly stops the world, which is fine at
// scrape frequency.
func writeRuntimeProm(pw *obs.PromWriter) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	pw.Gauge("go_goroutines", "Number of goroutines.", float64(runtime.NumGoroutine()))
	pw.Gauge("go_heap_alloc_bytes", "Bytes of allocated heap objects.", float64(ms.HeapAlloc))
	pw.Gauge("go_heap_sys_bytes", "Heap memory obtained from the OS.", float64(ms.HeapSys))
	pw.Counter("go_gc_cycles_total", "Completed GC cycles.", float64(ms.NumGC))
	pw.Counter("go_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.", float64(ms.PauseTotalNs)/1e9)
	pw.Counter("go_alloc_bytes_total", "Cumulative bytes allocated on the heap.", float64(ms.TotalAlloc))
}

// serveProm buffers one exposition and writes it with the Prometheus
// content type; a mid-exposition error becomes a clean 500 instead of
// a torn body.
func serveProm(w http.ResponseWriter, r *http.Request, write func(io.Writer) error) {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		WriteError(w, http.StatusInternalServerError, "rendering metrics: %v", err)
		return
	}
	w.Header().Set("Content-Type", obs.ContentType)
	w.Header().Set("Cache-Control", "no-store")
	_, _ = w.Write(buf.Bytes())
}

func (e *Engine) handleMetrics(w http.ResponseWriter, r *http.Request) {
	serveProm(w, r, e.WriteMetrics)
}

func (f *Fleet) handleMetrics(w http.ResponseWriter, r *http.Request) {
	serveProm(w, r, f.WriteMetrics)
}
