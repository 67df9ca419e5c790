// Package quality observes how *well* a serving engine routes, not how
// fast: the online counterpart of internal/eval's offline accuracy
// tables, running continuously against live traffic.
//
// The observer attaches to a serve.Engine (Attach; Observer implements
// serve.Attachment, and the engine's Close stops it. For every tenant
// of a fleet, call Attach from a serve.Fleet.Attach function) and
// works three angles:
//
//   - Shadow scoring. Every ingested trajectory is a labeled example:
//     a driver actually drove its path. The engine's write path offers
//     each applied batch to the observer, which deterministically
//     samples a configured fraction, and a rate-limited background
//     scorer re-routes each sampled OD on the current snapshot and
//     scores the served path against the driven path with the paper's
//     Eq. 1 / Eq. 4 similarity (internal/eval.ScorePath — the same
//     arithmetic as the offline tables). Scores aggregate cumulatively
//     and in rolling windows, per query category and trip-distance
//     bucket. The scorer is strictly off the hot path: offering never
//     blocks (a full queue drops and counts), and shadow re-routes go
//     through Engine.ShadowRoute, which touches no cache, metrics or
//     counters.
//
//   - Drift and staleness gauges. The total-variation distance between
//     the served snapshot's evidence-weighted preference distribution
//     and the engine's baseline — the model it was constructed with,
//     re-taken on every publish — says how far live learning has moved
//     the model: the "learned-vs-served divergence". The engine
//     computes it once per snapshot (serve.Engine.Drift); the observer
//     reports it. Region coverage (fraction of
//     regions with any T-edge evidence), evidence age (time since the
//     newest fold-in) and route-cache generation lag complete the
//     staleness picture.
//
//   - Worst-route exemplars. A fixed-size ring keeps the N
//     worst-scoring ODs — score, request ID (linking into the
//     /debug/trace ring via the quality.score span), served and driven
//     paths, evidence — served at GET /debug/quality for postmortems.
//
// Everything exports through the engine's existing surfaces: a Quality
// section in Stats()//stats, l2r_quality_* and l2r_drift_* families in
// /metrics (per-tenant labels under a fleet), quality.score spans in
// the trace ring, and shadow-score accuracy keys in cmd/l2rbench's
// report.
package quality
