// Package obs is the dependency-free telemetry substrate the serving
// stack reports through: request tracing, latency histograms, and a
// Prometheus text-format exposition writer — all stdlib-only and cheap
// enough to leave compiled into every hot path.
//
// Three pieces:
//
//   - Tracer / Span: a lightweight span API for per-request stage
//     decomposition (the paper's §VII region-search vs. inner-path
//     splicing vs. preference breakdown, live). A request's root span
//     is opened by Tracer.StartRequest; stages nest via StartSpan on
//     the request context. Completed traces land in a ring buffer
//     (/debug/trace), traces over a configurable threshold additionally
//     land in the slow-query log, and every span's duration feeds a
//     per-stage histogram for /metrics. A nil Tracer — and a context
//     without a trace — makes every call a no-op of a few nil checks,
//     so instrumented code pays nothing when tracing is off.
//
//   - Histogram: a lock-free quarter-log2 ("log-linear") latency
//     histogram — each power-of-two octave of microseconds is split
//     into four linear sub-buckets, bounding bucket width at 25% of the
//     value. Quantile interpolates inside the winning bucket, so a
//     reported quantile is off by at most one bucket width (≤25%
//     relative; the factor-of-two upper-bound error of the previous
//     log2 design is gone).
//
//   - PromWriter: a minimal Prometheus text-exposition (version 0.0.4)
//     writer — counters, gauges and native histogram _bucket/_sum/
//     _count series with labels, each family's samples grouped under
//     its HELP/TYPE lines — so /metrics needs no client library.
//
// internal/serve wires all three through the engine, fleet and HTTP
// layers; cmd/l2rserve exposes them behind -trace, -slow-query and
// -debug-addr. OPERATIONS.md documents the metric catalog and the
// slow-query workflow.
package obs
