package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/eval"
	"repro/internal/maint"
	"repro/internal/quality"
	"repro/internal/serve"
	"repro/internal/worldgen"
)

// runBench is the measurement mode: replay the schedule against a live
// engine, then emit the JSON report.
func runBench(h *harness) error {
	cfg := h.cfg
	walDir := ""
	if cfg.durable {
		dir, err := os.MkdirTemp("", "l2rbench-wal-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		walDir = dir
	}

	// The engine ingests via copy-on-write clones, but recovery below
	// needs a pristine base router; clone before handing ours over.
	recoveryBase := h.router
	if cfg.durable {
		recoveryBase = h.router.IngestClone()
	}
	e, err := serve.NewDurableEngine(h.router, cfg.serveOptions(walDir))
	if err != nil {
		return err
	}
	// Shadow-score every ingested trajectory (rate 1, unthrottled, deep
	// queue) so the report carries model-quality accuracy keys
	// alongside the latency numbers.
	qobs := quality.Attach(e, quality.Config{SampleRate: 1, Queue: 1 << 14, MaxPerSec: -1, Ring: 8})
	defer qobs.Close()

	newExec := h.newInprocExec(e)
	mode := "in-process"
	if cfg.http {
		base, shutdown, serr := httpServer(e)
		if serr != nil {
			return serr
		}
		defer shutdown()
		newExec = newHTTPExec(base)
		mode = "http " + base
	}

	workers := cfg.effectiveWorkers()
	log.Printf("replaying %d requests (%s) via %s, %d workers, qps target %g",
		len(h.schedule), scheduleSummary(h.schedule), mode, workers, cfg.qps)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rs := newReplayStats()
	replay(h.schedule, workers, cfg.qps, rs, newExec)
	runtime.ReadMemStats(&after)
	qobs.Drain()

	st := e.Stats()
	log.Printf("replayed in %v: %.0f req/s, %d errors, cache hit rate %.2f, %d ingest swaps (gen %d)",
		rs.elapsed.Round(time.Millisecond), float64(len(h.schedule))/rs.elapsed.Seconds(),
		rs.errs.Load(), st.CacheHitRate, st.Ingests, st.SnapshotGeneration)

	report := buildReport(h, rs, st, &before, &after)
	if cfg.durable {
		// Simulated crash: abandon the engine without Close and time a
		// cold NewDurableEngine recovery over its WAL directory.
		t0 := time.Now()
		rec, rerr := serve.NewDurableEngine(recoveryBase, cfg.serveOptions(walDir))
		if rerr != nil {
			return rerr
		}
		d := time.Since(t0)
		ds := rec.Stats().Durability
		m := map[string]any{
			"recovery_ns":        float64(d.Nanoseconds()),
			"replayed_records":   float64(ds.ReplayedRecords),
			"replayed_trajs":     float64(ds.ReplayedTrajectories),
			"wal_bytes":          float64(ds.WALBytes),
			"records_per_sec":    float64(0),
			"recovered_via_ckpt": b2f(ds.RecoveredFromCheckpoint),
		}
		if d > 0 {
			m["records_per_sec"] = float64(ds.ReplayedRecords) / d.Seconds()
		}
		report["l2rbench_recovery"] = m
		log.Printf("recovery: %d WAL records replayed in %v (%.0f records/s)",
			ds.ReplayedRecords, d.Round(time.Millisecond), m["records_per_sec"])
		rec.Close()
	}

	if err := maintPhase(h, e, report); err != nil {
		return err
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := writeReport(cfg.out, data); err != nil {
		return err
	}
	if n := rs.errs.Load(); n > 0 {
		return fmt.Errorf("%d of %d requests failed", n, len(h.schedule))
	}
	return nil
}

// buildReport shapes the report JSON: one top-level key per workload
// kind plus engine-side counters, each a flat metric map, and a meta
// section pinning the world the numbers were measured on.
func buildReport(h *harness, rs *replayStats, st serve.Stats, before, after *runtime.MemStats) map[string]map[string]any {
	report := make(map[string]map[string]any)
	report["l2rbench_meta"] = map[string]any{
		"scale":             h.world.Spec.Name,
		"seed":              h.cfg.seed,
		"world_fingerprint": fmt.Sprintf("%016x", worldgen.Fingerprint(h.world.Road)),
		"vertices":          h.world.Road.NumVertices(),
		"edges":             h.world.Road.NumEdges(),
		"trips":             len(h.world.All),
		"workers":           h.cfg.effectiveWorkers(),
	}
	for k := range rs.hists {
		n := rs.ops[k].Load()
		if n == 0 {
			continue
		}
		hist := rs.hists[k]
		m := map[string]any{
			"ops":     float64(n),
			"p50_ns":  float64(hist.Quantile(0.50).Nanoseconds()),
			"p99_ns":  float64(hist.Quantile(0.99).Nanoseconds()),
			"p999_ns": float64(hist.Quantile(0.999).Nanoseconds()),
			"mean_ns": float64(hist.Mean().Nanoseconds()),
		}
		if rs.elapsed > 0 {
			m["qps"] = float64(n) / rs.elapsed.Seconds()
		}
		report["l2rbench_"+opNames[k]] = m
	}
	total := uint64(len(h.schedule))
	eng := map[string]any{
		"requests":           float64(total),
		"errors":             float64(rs.errs.Load()),
		"qps":                float64(total) / rs.elapsed.Seconds(),
		"route_computations": float64(st.RouteComputations),
		"coalesced":          float64(st.CoalescedQueries),
		"cache_hit_pct":      100 * st.CacheHitRate,
		"generations":        float64(st.SnapshotGeneration),
		"customize_ns":       float64(st.CustomizeLag.Nanoseconds()),
		"swap_ns":            float64(st.SwapLag.Nanoseconds()),
	}
	if total > 0 {
		eng["allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / float64(total)
		eng["bytes_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(total)
	}
	report["l2rbench_engine"] = eng
	if q := st.Quality; q != nil && q.Total.Scores > 0 {
		report["l2rbench_quality"] = map[string]any{
			"shadow_scores":       float64(q.Total.Scores),
			"shadow_dropped":      float64(q.Dropped),
			"shadow_eq1_acc_pct":  q.Total.Eq1Pct,
			"shadow_eq4_acc_pct":  q.Total.Eq4Pct,
			"drift_tv":            q.DriftTV,
			"region_coverage_pct": 100 * q.RegionCoverage,
		}
	}
	return report
}

// maintPhase is the maintenance benchmark: attach the background
// maintainer to the engine that just served the replay, drive one
// manual clone-rebuild-publish cycle over every trajectory the replay
// ingested, and re-score the rebuilt snapshot's routes against the
// held-out driven paths. maint_rebuild_ns is a single-sample wall
// measurement, like customize_ns; shadow_eq1_acc_pct /
// shadow_eq4_acc_pct say whether the model the rebuild published still
// matches the evidence (internal/maint's TestMaintAccuracyFloor holds
// the same measurement to a floor).
func maintPhase(h *harness, e *serve.Engine, report map[string]map[string]any) error {
	mt := maint.Attach(e, maint.Config{
		CheckEvery: time.Hour, // manual trigger only
	})
	defer mt.Close()

	t0 := time.Now()
	rst, err := mt.TriggerNow(context.Background())
	if err != nil {
		return fmt.Errorf("maintenance rebuild: %w", err)
	}
	wall := time.Since(t0)

	// Post-rebuild accuracy over the held-out test trips: route each
	// trajectory's OD on the rebuilt snapshot and score the answer
	// against the driven path (the same Eq. 1 / Eq. 4 the shadow scorer
	// applies online).
	var eq1Sum, eq4Sum float64
	scored := 0
	for _, tr := range h.world.Test {
		if scored >= 512 {
			break
		}
		if len(tr.Truth) < 2 {
			continue
		}
		res, _ := e.Route(tr.Source(), tr.Destination())
		if len(res.Path) == 0 {
			continue
		}
		eq1, eq4 := eval.ScorePath(h.world.Road, tr.Truth, res.Path)
		eq1Sum += eq1
		eq4Sum += eq4
		scored++
	}

	st := mt.MaintStats()
	m := map[string]any{
		"maint_rebuild_ns":    float64(wall.Nanoseconds()),
		"maint_tedges_added":  float64(st.LastTEdgesAdded),
		"maint_tedges":        float64(rst.TEdges),
		"maint_bedges":        float64(rst.BEdges),
		"maint_learned_prefs": float64(rst.LearnedPrefs),
		"maint_transferred":   float64(rst.Transferred),
		"rebuilds":            float64(st.Rebuilds),
	}
	if scored > 0 {
		m["shadow_eq1_acc_pct"] = 100 * eq1Sum / float64(scored)
		m["shadow_eq4_acc_pct"] = 100 * eq4Sum / float64(scored)
	}
	report["l2rbench_maint"] = m
	log.Printf("maintenance: rebuild in %v (%d T-edges, %d added, %d prefs), post-rebuild eq1 %.1f%% over %d ODs",
		wall.Round(time.Millisecond), rst.TEdges, st.LastTEdgesAdded, rst.LearnedPrefs,
		100*eq1Sum/float64(maxInt(scored, 1)), scored)
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
