package maint

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/traj"
)

// Config tunes the background maintainer. The zero value is usable:
// drift- and evidence-triggered rebuilds with production-ish
// thresholds, no timer.
type Config struct {
	// DriftTV triggers a rebuild when the engine's drift gauge
	// (serve.Engine.Drift: the total-variation distance between the
	// served snapshot's evidence-weighted preference distribution and
	// the model last installed, by construction or by a publish)
	// exceeds it (default 0.25; negative disables the drift trigger).
	DriftTV float64
	// MinEvidence triggers a rebuild when this many trajectories have
	// accumulated since the last rebuild (default 4096; negative
	// disables the evidence trigger).
	MinEvidence int
	// Interval triggers a rebuild this long after the previous one
	// regardless of drift or volume (0 disables the timer — the
	// default; drift and evidence usually fire first).
	Interval time.Duration
	// CheckEvery is the trigger-evaluation cadence (default 2s). Checks
	// read the snapshot's drift block, computed once per snapshot.
	CheckEvery time.Duration
}

func (c Config) withDefaults() Config {
	if c.DriftTV == 0 {
		c.DriftTV = 0.25
	}
	if c.MinEvidence == 0 {
		c.MinEvidence = 4096
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = 2 * time.Second
	}
	return c
}

// baseline pins what a rebuild is reported against: the T-edge pair
// set of the snapshot published by the last rebuild (or present at
// attach), and when it was captured.
type baseline struct {
	pairs map[[2]int]bool
	at    time.Time
}

// lastRebuild records the outcome of the most recent cycle.
type lastRebuild struct {
	trigger     string
	stats       core.RetransduceStats
	tedgesAdded int
	at          time.Time
}

// Maintainer is the engine-attached background maintenance pipeline.
// Create one with Attach; stop it with Close. All methods are safe for
// concurrent use.
type Maintainer struct {
	eng *serve.Engine
	cfg Config

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once

	// rebuildMu serializes clone-rebuild-publish cycles between the
	// trigger loop and TriggerNow. Never held together with mu.
	rebuildMu sync.Mutex

	// mu guards the accumulator. Lock order: the engine's write lock
	// (when held) is always outer — OfferTrajectories and Published run
	// under it; nothing here acquires engine locks while holding mu.
	mu       sync.Mutex
	evidence int // trajectories accumulated since the last publish
	seeded   int // of which re-seeded from WAL recovery at attach

	accumulated atomic.Uint64
	rebuilds    atomic.Uint64
	failures    atomic.Uint64

	base atomic.Pointer[baseline]
	last atomic.Pointer[lastRebuild]
}

// Attach wires a background maintainer onto e: the engine's write path
// offers it every ingested batch, Stats()/metrics gain the Maintenance
// section and the l2r_maint_* family, GET /debug/maint serves its
// state, and a background loop evaluates the rebuild triggers. On a
// durable engine the accumulator is seeded with the trajectories
// start-up recovery replayed — evidence that was ingested but had not yet
// counted toward a rebuild when the previous process died, so a crash
// re-arms the triggers instead of silently forgetting it. The engine's
// Close (or Shutdown) stops the loop; calling the maintainer's own
// Close first is harmless.
func Attach(e *serve.Engine, cfg Config) *Maintainer {
	cfg = cfg.withDefaults()
	m := &Maintainer{
		eng:  e,
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	m.rebase(e.Snapshot())
	m.seeded = e.TakeRecoveredEvidence()
	m.evidence = m.seeded
	e.Attach(m)
	go m.loop()
	return m
}

// Endpoint serves GET /debug/maint: the maintainer's full stats. Like
// every /debug/ path it is not traced. With Report, OfferTrajectories
// and Published below, it implements serve.Attachment.
func (m *Maintainer) Endpoint() (string, http.Handler) {
	return "/debug/maint", serve.Method(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, map[string]any{"maintenance": m.MaintStats()})
	})
}

func (m *Maintainer) Report(st *serve.Stats) {
	ms := m.MaintStats()
	st.Maintenance = &ms
}

// Close stops the trigger loop. Idempotent; a rebuild already in
// flight finishes first.
func (m *Maintainer) Close() {
	m.closeOnce.Do(func() { close(m.stop) })
	<-m.done
}

// rebase pins a fresh trigger baseline on r's published state.
func (m *Maintainer) rebase(r *core.Router) {
	m.base.Store(&baseline{pairs: r.TEdgePairs(), at: time.Now()})
}

// OfferTrajectories counts the batch's trajectories that carry a road
// path — matched, or falling back to ground truth — toward the evidence
// trigger. Runs on the engine's write path under its write lock: O(batch)
// length checks, no copies, no waits.
func (m *Maintainer) OfferTrajectories(ts []*traj.Trajectory) {
	n := 0
	for _, t := range ts {
		if len(t.Matched) >= 2 || len(t.Truth) >= 2 {
			n++
		}
	}
	m.accumulated.Add(uint64(n))
	m.mu.Lock()
	m.evidence += n
	m.mu.Unlock()
}

// Published is told that a new snapshot swapped in —
// this maintainer's own rebuild landing, or an external Publish. Either
// way the accumulated-but-unrebuilt window closes: rebase the pair set
// and timer on the published model and reset the accumulator (a rebuild
// incorporated the evidence; an external artifact superseded it). Runs
// under the engine's write lock and must not call back into the engine.
func (m *Maintainer) Published(r *core.Router) {
	m.rebase(r)
	m.mu.Lock()
	m.evidence = 0
	m.seeded = 0
	m.mu.Unlock()
}

// loop evaluates the triggers every CheckEvery and runs a rebuild when
// one fires; exits on Close.
func (m *Maintainer) loop() {
	defer close(m.done)
	tick := time.NewTicker(m.cfg.CheckEvery)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
			if trigger := m.check(); trigger != "" {
				_, _ = m.rebuildOnce(context.Background(), trigger)
			}
		}
	}
}

// check returns the name of the first trigger that fires, or "".
func (m *Maintainer) check() string {
	m.mu.Lock()
	evidence := m.evidence
	m.mu.Unlock()
	if evidence == 0 {
		// Nothing ingested since the last publish: drift cannot have
		// moved and a rebuild would be a no-op re-derivation.
		return ""
	}
	if m.cfg.DriftTV >= 0 && m.eng.Drift().DriftTV > m.cfg.DriftTV {
		return "drift"
	}
	if m.cfg.MinEvidence >= 0 && evidence >= m.cfg.MinEvidence {
		return "evidence"
	}
	if m.cfg.Interval > 0 && time.Since(m.base.Load().at) >= m.cfg.Interval {
		return "timer"
	}
	return ""
}

// TriggerNow runs one clone-rebuild-publish cycle immediately,
// regardless of trigger state — operational tooling and the benchmark
// harness's maintenance phase call it. Serialized with the trigger
// loop's own rebuilds.
func (m *Maintainer) TriggerNow(ctx context.Context) (core.RetransduceStats, error) {
	return m.rebuildOnce(ctx, "manual")
}

// rebuildOnce drives one cycle through the engine: clone the served
// router, Retransduce the clone off the hot path, publish. The engine's
// Published callback (under its write lock, before the swap returns)
// rebases the baseline and resets the accumulator, so the cycle's
// bookkeeping is atomic with the swap itself.
func (m *Maintainer) rebuildOnce(ctx context.Context, trigger string) (core.RetransduceStats, error) {
	m.rebuildMu.Lock()
	defer m.rebuildMu.Unlock()
	before := m.base.Load().pairs
	var st core.RetransduceStats
	added := 0
	_, err := m.eng.RebuildSnapshot(ctx, func(r *core.Router) error {
		st = r.Retransduce(core.Options{})
		for p := range r.TEdgePairs() {
			if !before[p] {
				added++
			}
		}
		return nil
	})
	if err != nil {
		m.failures.Add(1)
		return st, err
	}
	m.rebuilds.Add(1)
	m.last.Store(&lastRebuild{trigger: trigger, stats: st, tedgesAdded: added, at: time.Now()})
	return st, nil
}

// MaintStats reports the maintainer's current state
// (Stats().Maintenance).
func (m *Maintainer) MaintStats() serve.MaintStats {
	ms := serve.MaintStats{
		Accumulated:     m.accumulated.Load(),
		DriftThreshold:  m.cfg.DriftTV,
		MinEvidence:     m.cfg.MinEvidence,
		Interval:        m.cfg.Interval,
		Rebuilds:        m.rebuilds.Load(),
		RebuildFailures: m.failures.Load(),
	}
	m.mu.Lock()
	ms.EvidenceSinceRebuild = m.evidence
	ms.RecoverySeeded = m.seeded
	m.mu.Unlock()
	ms.DriftTV = m.eng.Drift().DriftTV
	ms.SinceRebuild = time.Since(m.base.Load().at)
	if lr := m.last.Load(); lr != nil {
		ms.LastTrigger = lr.trigger
		ms.LastRebuildTime = lr.stats.Elapsed
		ms.LastTEdgesAdded = lr.tedgesAdded
		ms.LastLearnedPrefs = lr.stats.LearnedPrefs
		ms.LastTransferred = lr.stats.Transferred
		ms.LastNull = lr.stats.Null
		ms.LastMetricsCustomized = lr.stats.MetricsCustomized
		ms.LastLearnTime = lr.stats.LearnTime
		ms.LastTransferAssembleTime = lr.stats.TransferAssembleTime
		ms.LastTransferSolveTime = lr.stats.TransferSolveTime
		ms.LastMaterializeTime = lr.stats.MaterializeTime
		ms.LastTransferRows = lr.stats.TransferRows
		ms.LastTransferNNZ = lr.stats.TransferNNZ
		ms.LastSolveIterations = lr.stats.SolveIterations
	}
	return ms
}
