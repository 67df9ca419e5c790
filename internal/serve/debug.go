package serve

import (
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// requestIDHeader is the request-ID header in canonical MIME form, the
// form the server stores parsed header keys under whatever capitalization
// the client sent. Being canonical already, it indexes a Header map
// directly: Get and Set would re-validate it byte by byte per call.
const requestIDHeader = "X-Request-Id"

// firstValue is Header.Get for a key known to be canonical.
func firstValue(h http.Header, canonicalKey string) string {
	if v := h[canonicalKey]; len(v) > 0 {
		return v[0]
	}
	return ""
}

// maxRequestIDLen bounds an incoming X-Request-ID the server honors.
// The ID is echoed, logged and kept with the request's trace in the
// ring, so an unbounded one would let a client pin header-sized
// strings in memory.
const maxRequestIDLen = 128

// validRequestID reports whether id is 1–maxRequestIDLen bytes of
// visible ASCII, the only incoming IDs the server honors.
func validRequestID(id string) bool {
	return id != "" && len(id) <= maxRequestIDLen &&
		!strings.ContainsFunc(id, func(r rune) bool { return r <= ' ' || r > '~' })
}

// withRequestTelemetry is the outermost HTTP middleware on engine and
// fleet handlers: it assigns every request an ID (honoring a valid
// incoming X-Request-ID, generating one otherwise), echoes it on the
// response, and opens the request's root trace span. Telemetry
// endpoints (/metrics, /debug/...) get IDs but no traces — scrapes
// every few seconds would otherwise dominate the trace ring. A fleet
// mounts its tenants' bare APIs, so every request passes through it
// exactly once.
func withRequestTelemetry(t *obs.Tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := firstValue(r.Header, requestIDHeader)
		if !validRequestID(id) {
			id = obs.NewRequestID()
			// Stamp the request too, so the handlers below it (an
			// attachment's endpoint) observe the same ID.
			r.Header[requestIDHeader] = []string{id}
		}
		w.Header()[requestIDHeader] = []string{id}
		if !t.Enabled() || telemetryPath(r.URL.Path) {
			h.ServeHTTP(w, r)
			return
		}
		// The span name is built only here: without a tracer nothing
		// would read it.
		ctx, sp := t.StartRequest(r.Context(), r.Method+" "+r.URL.Path, id)
		defer sp.End()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

// telemetryPath reports whether p serves telemetry itself and should
// not be traced: /metrics or a /debug/ path of the engine API, on its
// own or under a fleet's /t/{tenant} prefix. The path below the tenant
// decides, so a tenant named "debug" or "metrics" is traced like any
// other.
func telemetryPath(p string) bool {
	if _, rest, ok := splitTenant(p); ok && rest != "" {
		p = rest
	}
	return p == "/metrics" || strings.HasPrefix(p, "/debug/")
}

// traceHandler serves GET /debug/trace: the n most recent completed
// traces (?n=, default 50), or the slow-query log with ?slow=1, plus
// the tracer's own counters. ?min_ms= keeps only traces at least that
// many milliseconds long — the way to query the ring for mid-latency
// requests that never crossed the slow-query threshold.
func traceHandler(t *obs.Tracer) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		n := 50
		if raw := r.URL.Query().Get("n"); raw != "" {
			v, err := strconv.Atoi(raw)
			if err != nil || v < 1 {
				WriteError(w, http.StatusBadRequest, "parameter %q must be a positive integer", "n")
				return
			}
			n = v
		}
		minUS := 0.0
		if raw := r.URL.Query().Get("min_ms"); raw != "" {
			v, err := strconv.ParseFloat(raw, 64)
			if err != nil || v < 0 {
				WriteError(w, http.StatusBadRequest, "parameter %q must be a non-negative number", "min_ms")
				return
			}
			minUS = v * 1000
		}
		fetch := n
		if minUS > 0 {
			fetch = 0 // the whole ring: the filter decides what survives
		}
		var traces []*obs.Trace
		if r.URL.Query().Get("slow") != "" {
			traces = t.Slow(fetch)
		} else {
			traces = t.Recent(fetch)
		}
		if minUS > 0 {
			kept := traces[:0]
			for _, tr := range traces {
				if tr.DurationUS >= minUS {
					kept = append(kept, tr)
				}
			}
			traces = kept
			if len(traces) > n {
				traces = traces[:n]
			}
		}
		if traces == nil {
			traces = []*obs.Trace{}
		}
		WriteJSON(w, http.StatusOK, map[string]any{
			"tracer": t.Stats(),
			"traces": traces,
		})
	}
}

// DebugSnapshot is a point-in-time view of the engine's live internals
// for /debug/snapshot. Like Stats it never takes the write path's lock,
// so it stays readable while a long ingest or rebuild holds it; unlike
// Stats it merges no latency histograms.
type DebugSnapshot struct {
	Durable    bool   `json:"durable"`
	Tracing    bool   `json:"tracing"`
	Generation uint64 `json:"generation"`
	// CacheEntries is the route cache's current occupancy, answers and
	// flights (0 when caching is disabled); Coalescing whether duplicate
	// queries share in-flight computations — exactly when the cache is
	// on, since the cache is the coalescer.
	CacheEntries int  `json:"cache_entries"`
	Coalescing   bool `json:"coalescing"`
	// WALSeq is the next write-ahead-log sequence number — how many
	// batches this WAL lineage has durably acknowledged (0 on
	// non-durable engines).
	WALSeq uint64 `json:"wal_seq,omitempty"`
	// Stream queue occupancy, when a streaming pipeline is attached.
	StreamQueueDepth    int `json:"stream_queue_depth,omitempty"`
	StreamQueueCapacity int `json:"stream_queue_capacity,omitempty"`
	// Quality scoring queue occupancy, when a model-quality observer is
	// attached.
	QualityQueueDepth    int `json:"quality_queue_depth,omitempty"`
	QualityQueueCapacity int `json:"quality_queue_capacity,omitempty"`
	// What one shortest-path query costs on the served contraction
	// order: the elimination tree's height and the mean up-arcs one
	// side of a query relaxes.
	CHEliminationTreeHeight int     `json:"ch_elimination_tree_height,omitempty"`
	CHClimbArcsMean         float64 `json:"ch_climb_arcs_mean,omitempty"`
	Goroutines              int     `json:"goroutines"`
	// GoVersion and VCSRevision identify the binary that produced this
	// snapshot (see l2r_build_info in /metrics).
	GoVersion   string `json:"go_version"`
	VCSRevision string `json:"vcs_revision,omitempty"`
}

// A queueReporter is an attachment whose queue /debug/snapshot shows:
// internal/stream's Ingestor and internal/quality's Observer.
// ReportQueue fills the queue's depth and capacity in ds and nothing
// else, so the snapshot runs no attachment's Report, which would lock
// the attachment's state, build its maps and, for the observer, compute
// the snapshot's drift block, all to read two numbers.
type queueReporter interface {
	ReportQueue(ds *DebugSnapshot)
}

// DebugSnapshotNow collects the engine's DebugSnapshot without waiting
// for the write path. It is not free: the cache occupancy takes every
// shard's lock in turn.
func (e *Engine) DebugSnapshotNow() DebugSnapshot {
	ds := DebugSnapshot{
		Durable:    e.dur != nil,
		Tracing:    e.trc.Enabled(),
		Coalescing: e.cache != nil,
		Goroutines: runtime.NumGoroutine(),
	}
	snap := e.snap.Load()
	ds.Generation = snap.gen
	ds.CHEliminationTreeHeight, ds.CHClimbArcsMean = snap.base.CHClimb()
	if e.cache != nil {
		ds.CacheEntries = e.cache.len()
	}
	if e.dur != nil {
		ds.WALSeq = e.dur.walSeq.Load()
	}
	for _, a := range *e.attachments.Load() {
		if q, ok := a.Attachment.(queueReporter); ok {
			q.ReportQueue(&ds)
		}
	}
	b := buildID()
	ds.GoVersion = b.goVersion
	ds.VCSRevision = b.revision
	return ds
}

// debugSnapshot is the fleet's /debug/snapshot reply: every tenant's
// DebugSnapshot keyed by name.
func (f *Fleet) debugSnapshot() any {
	reg := f.registry()
	per := make(map[string]DebugSnapshot, len(reg))
	for name, t := range reg {
		per[name] = t.eng.DebugSnapshotNow()
	}
	return map[string]any{
		"tenants":    len(per),
		"goroutines": runtime.NumGoroutine(),
		"per_tenant": per,
	}
}

// statusWriter records the status code and body size a handler wrote,
// for access logging.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(b)
	sw.bytes += int64(n)
	return n, err
}

// AccessLog wraps h with one structured log line per request: method,
// path, tenant (for /t/{tenant}/... paths), status, response bytes,
// duration and the request ID the telemetry middleware assigned. Layer
// it outside withRequestTelemetry so the ID is already on the response
// headers when the line is emitted.
func AccessLog(l *slog.Logger, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		attrs := []slog.Attr{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.Int64("bytes", sw.bytes),
			slog.Float64("duration_ms", float64(time.Since(start).Microseconds())/1000),
		}
		if tenant, _, _ := splitTenant(r.URL.Path); tenant != "" {
			attrs = append(attrs, slog.String("tenant", tenant))
		}
		if id := firstValue(sw.Header(), requestIDHeader); id != "" {
			attrs = append(attrs, slog.String("request_id", id))
		}
		l.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
	})
}
