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
	// MinEvidence triggers a rebuild when the engine has folded in this
	// many paths since the installed model (serve.Engine.Accrual)
	// (default 4096; negative disables the evidence trigger).
	MinEvidence int
	// Interval triggers a rebuild this long after the model was
	// installed regardless of drift or volume (0 disables the timer —
	// the default; drift and evidence usually fire first).
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
	// trigger loop and TriggerNow.
	rebuildMu sync.Mutex

	rebuilds atomic.Uint64
	failures atomic.Uint64
	last     atomic.Pointer[serve.MaintStats] // the last cycle's Last* fields
}

// Attach wires a background maintainer onto e: Stats()/metrics gain
// the Maintenance section and the l2r_maint_* family, GET /debug/maint
// serves its state, and a background loop evaluates the rebuild
// triggers against the engine's books (serve.Engine.Drift and
// .Accrual). On a durable engine those books start with the
// trajectories start-up recovery replayed — evidence that was ingested
// but not yet rebuilt into the model when the previous process died, so
// a crash re-arms the triggers instead of silently forgetting it. The
// engine's Close (or Shutdown) stops the loop; calling the maintainer's
// own Close first is harmless.
func Attach(e *serve.Engine, cfg Config) *Maintainer {
	cfg = cfg.withDefaults()
	m := &Maintainer{
		eng:  e,
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	e.Attach(m)
	go m.loop()
	return m
}

// Endpoint serves GET /debug/maint: the maintainer's full stats. Like
// every /debug/ path it is not traced. With Report, OfferTrajectories
// and Close below, it implements serve.Attachment.
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

// OfferTrajectories does nothing: the engine counts the paths it folds
// in on its own books, which the triggers read.
func (m *Maintainer) OfferTrajectories([]*traj.Trajectory) {}

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
	ac := m.eng.Accrual()
	if ac.SinceInstall == 0 {
		// Nothing ingested since the last publish: drift cannot have
		// moved and a rebuild would be a no-op re-derivation.
		return ""
	}
	if m.cfg.DriftTV >= 0 && m.eng.Drift().DriftTV > m.cfg.DriftTV {
		return "drift"
	}
	if m.cfg.MinEvidence >= 0 && ac.SinceInstall >= m.cfg.MinEvidence {
		return "evidence"
	}
	if m.cfg.Interval > 0 && time.Since(ac.InstalledAt) >= m.cfg.Interval {
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
// router, Retransduce the clone off the hot path, publish, which zeroes
// the engine's accrual. The T-edges added are counted against the model
// installed in the snapshot the clone was taken from, read under the
// engine's write lock; ingest only adds T-edges and Retransduce only
// B-edges, so that is the pairs that gained a T-edge since the install.
func (m *Maintainer) rebuildOnce(ctx context.Context, trigger string) (core.RetransduceStats, error) {
	m.rebuildMu.Lock()
	defer m.rebuildMu.Unlock()
	var st core.RetransduceStats
	added := 0
	_, err := m.eng.RebuildSnapshot(ctx, func(r *core.Router) error {
		installed := m.eng.Accrual().InstalledTEdges
		st = r.Retransduce(core.Options{})
		added = r.RegionGraph().TEdgeCount() - installed
		return nil
	})
	if err != nil {
		m.failures.Add(1)
		return st, err
	}
	m.rebuilds.Add(1)
	m.last.Store(&serve.MaintStats{
		LastTrigger:              trigger,
		LastRebuildTime:          st.Elapsed,
		LastTEdgesAdded:          added,
		LastLearnedPrefs:         st.LearnedPrefs,
		LastTransferred:          st.Transferred,
		LastNull:                 st.Null,
		LastMetricsCustomized:    st.MetricsCustomized,
		LastLearnTime:            st.LearnTime,
		LastTransferAssembleTime: st.TransferAssembleTime,
		LastTransferSolveTime:    st.TransferSolveTime,
		LastMaterializeTime:      st.MaterializeTime,
		LastTransferRows:         st.TransferRows,
		LastTransferNNZ:          st.TransferNNZ,
		LastSolveIterations:      st.SolveIterations,
	})
	return st, nil
}

// MaintStats reports the maintainer's current state
// (Stats().Maintenance).
func (m *Maintainer) MaintStats() serve.MaintStats {
	var ms serve.MaintStats
	if last := m.last.Load(); last != nil {
		ms = *last
	}
	ac := m.eng.Accrual()
	ms.Accumulated = ac.Paths
	ms.RecoverySeeded = ac.Recovered
	ms.EvidenceSinceRebuild = ac.SinceInstall
	ms.DriftTV = m.eng.Drift().DriftTV
	ms.DriftThreshold = m.cfg.DriftTV
	ms.MinEvidence = m.cfg.MinEvidence
	ms.Interval = m.cfg.Interval
	ms.SinceRebuild = time.Since(ac.InstalledAt)
	ms.Rebuilds = m.rebuilds.Load()
	ms.RebuildFailures = m.failures.Load()
	return ms
}
