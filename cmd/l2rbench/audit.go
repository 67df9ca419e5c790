package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/roadnet"
	"repro/internal/serve"
)

// runAudit is the correctness mode: the workload's whole point is that
// a seed pins the system's answers, so prove it. Three engines see the
// same deterministic schedule — A and B replay it independently from
// scratch, C recovers from A's abandoned WAL directory (a simulated
// crash: A is never Closed) — and all three must return identical
// routes, categories and evidence for a fixed OD set.
func runAudit(h *harness) error {
	cfg := h.cfg
	if cfg.http {
		log.Printf("audit runs in-process; ignoring -http")
	}
	ods := auditODs(h.queries, cfg.auditODs)
	if len(ods) < cfg.auditODs {
		return fmt.Errorf("audit needs %d distinct ODs but the pool has %d; raise -trips or -scale",
			cfg.auditODs, len(ods))
	}
	log.Printf("audit: %d requests replayed sequentially, %d ODs evaluated per engine",
		len(h.schedule), len(ods))

	dirA, err := os.MkdirTemp("", "l2rbench-audit-a-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dirA)
	dirB, err := os.MkdirTemp("", "l2rbench-audit-b-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dirB)

	ansA, err := h.auditRun("A", dirA, ods)
	if err != nil {
		return err
	}
	ansB, err := h.auditRun("B", dirB, ods)
	if err != nil {
		return err
	}
	seedDiffs := diffAnswers(ansA, ansB, ods)
	reportDiffs("seed replay (A vs B)", seedDiffs)

	// Crash recovery: rebuild from A's WAL; answers must match without
	// replaying the live workload at all.
	t0 := time.Now()
	rec, err := serve.NewDurableEngine(h.router.IngestClone(), cfg.serveOptions(dirA))
	if err != nil {
		return fmt.Errorf("recovery from %s: %w", dirA, err)
	}
	ds := rec.Stats().Durability
	log.Printf("engine C recovered %d WAL trajectories in %v (checkpoint: %v)",
		ds.ReplayedTrajectories, time.Since(t0).Round(time.Millisecond), ds.RecoveredFromCheckpoint)
	ansC := evaluate(rec, ods)
	rec.Close()
	recDiffs := diffAnswers(ansA, ansC, ods)
	reportDiffs("crash recovery (A vs C)", recDiffs)

	if cfg.out != "" {
		report := map[string]any{"l2rbench_audit": map[string]any{
			"ods":                 len(ods),
			"requests":            len(h.schedule),
			"seed_mismatches":     len(seedDiffs),
			"recovery_mismatches": len(recDiffs),
			"pass":                len(seedDiffs) == 0 && len(recDiffs) == 0,
		}}
		data, merr := json.MarshalIndent(report, "", "  ")
		if merr != nil {
			return merr
		}
		if werr := writeReport(cfg.out, append(data, '\n')); werr != nil {
			return werr
		}
	}
	if len(seedDiffs)+len(recDiffs) > 0 {
		return fmt.Errorf("audit FAILED: %d seed-replay + %d recovery mismatches",
			len(seedDiffs), len(recDiffs))
	}
	log.Printf("audit PASS: %d ODs identical across seed replay and crash recovery", len(ods))
	return nil
}

// auditRun replays the schedule sequentially on a fresh durable engine
// and evaluates the audit ODs. The engine is deliberately not Closed —
// its WAL directory is left exactly as a crash would leave it.
func (h *harness) auditRun(name, walDir string, ods [][2]roadnet.VertexID) ([]auditAnswer, error) {
	e, err := serve.NewDurableEngine(h.router.IngestClone(), h.cfg.serveOptions(walDir))
	if err != nil {
		return nil, fmt.Errorf("engine %s: %w", name, err)
	}
	rs := newReplayStats()
	replay(h.schedule, 1, 0, rs, h.newInprocExec(e))
	st := e.Stats()
	log.Printf("engine %s: %d requests in %v, %d ingest swaps, generation %d",
		name, len(h.schedule), rs.elapsed.Round(time.Millisecond), st.Ingests, st.SnapshotGeneration)
	return evaluate(e, ods), nil
}

// auditODs picks the first n distinct (source, destination) pairs from
// the query pool — deterministic because the pool order is the test
// trajectory order.
func auditODs(qs []eval.Query, n int) [][2]roadnet.VertexID {
	seen := make(map[[2]roadnet.VertexID]bool, n)
	out := make([][2]roadnet.VertexID, 0, n)
	for _, q := range qs {
		od := [2]roadnet.VertexID{q.S, q.D}
		if seen[od] {
			continue
		}
		seen[od] = true
		out = append(out, od)
		if len(out) == n {
			break
		}
	}
	return out
}

// auditAnswer is everything l2rbench asserts equal across engines.
type auditAnswer struct {
	ok   bool
	path roadnet.Path
	cat  core.Category
	ev   core.Evidence
}

func evaluate(e *serve.Engine, ods [][2]roadnet.VertexID) []auditAnswer {
	out := make([]auditAnswer, len(ods))
	for i, od := range ods {
		// The bool return reports cache sharing, which legitimately
		// differs across engines; success is a non-empty path.
		res, _ := e.Route(od[0], od[1])
		out[i] = auditAnswer{ok: len(res.Path) > 0, path: res.Path, cat: res.Category, ev: res.Evidence}
	}
	return out
}

// diffAnswers describes every OD whose two answers differ.
func diffAnswers(a, b []auditAnswer, ods [][2]roadnet.VertexID) []string {
	var diffs []string
	for i := range a {
		x, y := a[i], b[i]
		switch {
		case x.ok != y.ok:
			diffs = append(diffs, fmt.Sprintf("OD %d->%d: found=%v vs %v", ods[i][0], ods[i][1], x.ok, y.ok))
		case x.cat != y.cat:
			diffs = append(diffs, fmt.Sprintf("OD %d->%d: category %v vs %v", ods[i][0], ods[i][1], x.cat, y.cat))
		case x.ev != y.ev:
			diffs = append(diffs, fmt.Sprintf("OD %d->%d: evidence %d vs %d", ods[i][0], ods[i][1], x.ev, y.ev))
		case !samePath(x.path, y.path):
			diffs = append(diffs, fmt.Sprintf("OD %d->%d: paths diverge (%d vs %d vertices)",
				ods[i][0], ods[i][1], len(x.path), len(y.path)))
		}
	}
	return diffs
}

func samePath(a, b roadnet.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func reportDiffs(phase string, diffs []string) {
	if len(diffs) == 0 {
		log.Printf("%s: identical", phase)
		return
	}
	log.Printf("%s: %d MISMATCHES", phase, len(diffs))
	for i, d := range diffs {
		if i == 8 {
			log.Printf("  ... %d more", len(diffs)-8)
			break
		}
		log.Printf("  %s", d)
	}
}
