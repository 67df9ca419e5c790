package serve

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/roadnet"
)

// QualityScoreCell summarizes shadow scores for one slice of traffic
// (a query category, a distance bucket, or everything). Eq1Pct/Eq4Pct
// are cumulative means over every score since attach; the Window
// variants are means over the observer's rolling window — the signal
// that moves when quality regresses *now*.
type QualityScoreCell struct {
	Scores       uint64  `json:"scores"`
	Eq1Pct       float64 `json:"eq1_pct"`
	Eq4Pct       float64 `json:"eq4_pct"`
	WindowEq1Pct float64 `json:"window_eq1_pct"`
	WindowEq4Pct float64 `json:"window_eq4_pct"`
}

// QualityStats is the model-quality observer's point-in-time report:
// shadow-scoring throughput and accuracy, preference-drift and
// staleness gauges. Present in Stats()/the /stats body only when an
// observer is attached (internal/quality's Attach).
type QualityStats struct {
	// SampleRate is the configured fraction of ingested trajectories
	// shadow-scored; Window the rolling-window size behind the Window*
	// fields.
	SampleRate float64 `json:"sample_rate"`
	Window     int     `json:"window"`

	// Offered counts trajectories the engine's write path presented to
	// the observer; Sampled the deterministic sample taken from them;
	// Scored the samples actually scored; Dropped samples rejected by a
	// full scoring queue (the scorer never blocks ingest); Skipped
	// samples that could not be scored (degenerate or off-network paths
	// — e.g. after a hot swap to a different world).
	Offered uint64 `json:"offered"`
	Sampled uint64 `json:"sampled"`
	Scored  uint64 `json:"scored"`
	Dropped uint64 `json:"dropped"`
	Skipped uint64 `json:"skipped"`

	// Total aggregates every shadow score; PerCategory and PerDistance
	// break the same numbers down by the paper's query categories and
	// by trip-distance bucket (keys like "(0,2]km").
	Total       QualityScoreCell            `json:"total"`
	PerCategory map[string]QualityScoreCell `json:"per_category,omitempty"`
	PerDistance map[string]QualityScoreCell `json:"per_distance,omitempty"`

	// WindowWorstEq1Pct is the worst Eq. 1 score inside the rolling
	// window — the leading edge of the exemplar ring.
	WindowWorstEq1Pct float64 `json:"window_worst_eq1_pct"`

	// DriftTV is the learned-vs-served divergence: the total-variation
	// distance between the evidence-weighted preference distribution of
	// the currently served snapshot and the baseline distribution
	// captured when the observer attached (re-captured on Publish).
	// 0 = serving exactly the preferences the baseline had; 1 = the
	// accumulated evidence backs a completely different preference mix.
	DriftTV float64 `json:"drift_tv"`
	// BaselineGeneration is the snapshot generation the drift baseline
	// was captured at.
	BaselineGeneration uint64 `json:"baseline_generation"`

	// RegionCoverage is the fraction of regions with at least one
	// incident T-edge (trajectory-backed evidence); RegionsWithEvidence
	// and Regions are its numerator and denominator.
	RegionCoverage      float64 `json:"region_coverage"`
	RegionsWithEvidence int     `json:"regions_with_evidence"`
	Regions             int     `json:"regions"`

	// EvidenceAge is the time since the newest trajectory fold-in
	// (zero when nothing has been ingested since start).
	EvidenceAge time.Duration `json:"evidence_age_ns"`
	// CacheGenerationLag is how many generations the oldest live route-
	// cache entry trails the served snapshot (stale entries die lazily
	// on lookup; a large lag means cold keys are serving old answers'
	// slots).
	CacheGenerationLag uint64 `json:"cache_generation_lag"`

	// Exemplars is the number of worst-scoring ODs currently held for
	// GET /debug/quality; QueueDepth/QueueCapacity describe the scoring
	// queue.
	Exemplars     int `json:"exemplars"`
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
}

// ShadowRoute answers one query off the books for the shadow scorer:
// it computes on a borrowed clone of the current snapshot but records
// no latency metrics, consults no cache and counts as no query — the
// scorer's re-routes must not distort serving telemetry or evict real
// traffic's cache entries. It returns the generation that answered so
// exemplars can pin which snapshot produced a bad route.
func (e *Engine) ShadowRoute(ctx context.Context, s, d roadnet.VertexID) (core.RouteResult, uint64) {
	snap := e.snap.Load()
	r := snap.borrow()
	res := r.RouteCtx(ctx, s, d)
	snap.release(r)
	return res, snap.gen
}

// LastIngestAt returns the wall time of the last trajectory fold-in
// (zero time when nothing has been ingested since start) — the
// "evidence age" staleness gauge reads from here.
func (e *Engine) LastIngestAt() time.Time {
	ns := e.lastIngestUnix.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// CacheGenerationLag reports how many generations the oldest live
// route-cache entry trails the current snapshot (0 when caching is
// disabled or every entry is current).
func (e *Engine) CacheGenerationLag() uint64 {
	if e.cache == nil {
		return 0
	}
	snap := e.snap.Load()
	if snap == nil {
		return 0
	}
	return e.cache.generationLag(snap.gen)
}
