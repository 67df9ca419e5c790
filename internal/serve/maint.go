package serve

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// MaintStats is the background maintainer's point-in-time report:
// evidence counts, trigger gauges, and the history of
// clone-rebuild-publish cycles it has driven. Present in Stats()/the
// /stats body only when a maintainer is attached (internal/maint's
// Attach). The evidence counts and SinceRebuild are the engine's
// (Engine.Accrual).
type MaintStats struct {
	// Accumulated counts the paths ingests folded in since the engine
	// was constructed, and RecoverySeeded the trajectories start-up
	// recovery replayed (evidence ingested since the last checkpoint
	// that must still count toward the next rebuild's trigger) until
	// the first publish.
	Accumulated    uint64 `json:"accumulated"`
	RecoverySeeded int    `json:"recovery_seeded"`

	// Trigger gauges: evidence folded in since the model last installed
	// (RecoverySeeded included), the engine's drift gauge (Engine.Drift:
	// the served snapshot against that model), the time since it was
	// installed, and the configured thresholds a trigger check compares
	// them to.
	EvidenceSinceRebuild int           `json:"evidence_since_rebuild"`
	DriftTV              float64       `json:"drift_tv"`
	DriftThreshold       float64       `json:"drift_threshold"`
	MinEvidence          int           `json:"min_evidence"`
	Interval             time.Duration `json:"interval_ns"`
	SinceRebuild         time.Duration `json:"since_rebuild_ns"`

	// Rebuild history. LastTrigger names what fired the most recent
	// cycle ("drift", "evidence", "timer", "manual"); the Last* gauges
	// describe its outcome (core.RetransduceStats).
	Rebuilds              uint64        `json:"rebuilds"`
	RebuildFailures       uint64        `json:"rebuild_failures"`
	LastTrigger           string        `json:"last_trigger,omitempty"`
	LastRebuildTime       time.Duration `json:"last_rebuild_ns,omitempty"`
	LastTEdgesAdded       int           `json:"last_tedges_added"`
	LastLearnedPrefs      int           `json:"last_learned_prefs"`
	LastTransferred       int           `json:"last_transferred"`
	LastNull              int           `json:"last_null"`
	LastMetricsCustomized int           `json:"last_metrics_customized"`

	// Where the most recent rebuild's time went: its four phases (they
	// sum to at most LastRebuildTime; the rest is ConnectBFS, the edge
	// reset and the metric prewarm), and the size and solver work of
	// the Eq. 3 system its transduction solved.
	LastLearnTime            time.Duration `json:"last_learn_ns,omitempty"`
	LastTransferAssembleTime time.Duration `json:"last_transfer_assemble_ns,omitempty"`
	LastTransferSolveTime    time.Duration `json:"last_transfer_solve_ns,omitempty"`
	LastMaterializeTime      time.Duration `json:"last_materialize_ns,omitempty"`
	LastTransferRows         int           `json:"last_transfer_rows"`
	LastTransferNNZ          int           `json:"last_transfer_nnz"`
	LastSolveIterations      int           `json:"last_solve_iterations"`
}

// RebuildSnapshot runs one maintenance clone-rebuild-publish cycle:
// it copy-on-write clones the currently served router, hands the clone
// to rebuild (which runs the expensive work — core.Retransduce — off
// the hot path while queries keep serving the old snapshot), and
// publishes the result as the next generation through the same swap
// path Ingest uses. On a durable engine the rebuilt snapshot is folded
// into a checkpoint immediately, so the rebuild is durable for free:
// recovery restarts from it instead of re-deriving it.
//
// The whole cycle holds the engine's write lock — queries are never
// blocked, but ingest batches queue behind the rebuild (the price of
// rebuilding against a frozen evidence set; OPERATIONS.md's trigger
// tuning bounds how often it is paid). If rebuild returns an error the
// clone is discarded, nothing is published, and the served snapshot is
// untouched. Returns the generation that now serves.
func (e *Engine) RebuildSnapshot(ctx context.Context, rebuild func(*core.Router) error) (uint64, error) {
	sp := obs.SpanFrom(ctx)
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	cur := e.snap.Load()
	cl := sp.Start("maint.clone")
	next := cur.base.IngestClone()
	cl.End()
	rb := sp.Start("maint.rebuild")
	err := rebuild(next)
	rb.End()
	if err != nil {
		return cur.gen, err
	}
	pub := sp.Start("maint.publish")
	gen := e.publishLocked(next, false)
	pub.End()
	return gen, nil
}
