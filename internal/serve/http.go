package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// RouteJSON is the wire form of one recommended route.
type RouteJSON struct {
	Source         int     `json:"source"`
	Destination    int     `json:"destination"`
	Path           []int   `json:"path"`
	LengthM        float64 `json:"length_m"`
	TravelTimeS    float64 `json:"travel_time_s"`
	Category       string  `json:"category"`
	Evidence       string  `json:"evidence"`
	UsedRegionPath bool    `json:"used_region_path"`
	RegionPath     []int   `json:"region_path,omitempty"`
}

// routeReply is the /route and /route/alternatives response body.
type routeReply struct {
	Routes     []RouteJSON `json:"routes"`
	Cached     bool        `json:"cached"`
	Generation uint64      `json:"generation"`
}

// ingestRequest is the /ingest request body: road-network paths, one
// per trajectory, each a vertex-ID sequence (the map-matched form; raw
// GPS ingestion goes through the library API).
type ingestRequest struct {
	Paths [][]int `json:"paths"`
}

// ingestReply is the /ingest response body.
type ingestReply struct {
	Paths              int     `json:"paths"`
	TouchedEdges       int     `json:"touched_edges"`
	UpgradedEdges      int     `json:"upgraded_edges"`
	NewEdges           int     `json:"new_edges"`
	Relearned          int     `json:"relearned"`
	StalenessRatio     float64 `json:"staleness_ratio"`
	RebuildRecommended bool    `json:"rebuild_recommended"`
	ElapsedMs          float64 `json:"elapsed_ms"`
	Generation         uint64  `json:"generation"`
	// Durable reports that this batch was appended (and, under
	// wal.SyncAlways, fsynced) to the engine's write-ahead log before
	// the swap: it survives a restart. False when the engine has no
	// WAL configured, or when the append failed (check the stats
	// counter wal_append_failures) — either way the batch serves from
	// memory only.
	Durable bool `json:"durable"`
}

// Handler returns the engine's HTTP API:
//
//	GET  /route?src=S&dst=D              best route for (S, D)
//	GET  /route/alternatives?src=S&dst=D&k=K   up to K ranked routes
//	POST /ingest                         {"paths": [[v0,v1,...], ...]}
//	POST /stream                         NDJSON GPS points (stream.Attach)
//	GET  /stats                          serving metrics (Stats)
//	GET  /healthz                        liveness + snapshot generation
//	GET  /metrics                        Prometheus text exposition
//	GET  /debug/trace?n=50&slow=1&min_ms=5   recent / slow request traces
//	GET  /debug/snapshot                 non-blocking internals snapshot
//	GET  /debug/quality                  worst shadow-scored ODs (quality.Attach)
//	GET  /debug/maint                    maintenance state (maint.Attach)
//
// The last three are served by whatever is attached there (Attach) and
// answer 404 until something is; attaching after Handler was built
// works, because the mux's fallback consults the list per request.
//
// Every endpoint's request body is bounded by Options.MaxBodyBytes;
// larger bodies are rejected with 413. Every response carries an
// X-Request-ID (honoring an incoming header), and — with a tracer
// configured (Options.Tracer) — each request is traced end to end.
//
// While a durable engine's asynchronous recovery is still replaying
// the write-ahead log (Ready() is false), the serving endpoints answer
// 503 — including /healthz, whose body reports "recovering" so load
// balancers keep traffic away until replay completes. /metrics and
// /debug/... stay up throughout: a scrape sees l2r_ready 0 and
// /debug/snapshot shows recovery progress instead of hanging — exactly
// the window the "recovery stuck" runbook needs them in.
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/route", Method(http.MethodGet, e.handleRoute))
	mux.HandleFunc("/route/alternatives", Method(http.MethodGet, e.handleAlternatives))
	mux.HandleFunc("/ingest", Method(http.MethodPost, e.handleIngest))
	mux.HandleFunc("/stats", Method(http.MethodGet, e.handleStats))
	mux.HandleFunc("/healthz", e.handleHealthz)
	mux.HandleFunc("/metrics", Method(http.MethodGet, e.handleMetrics))
	mux.HandleFunc("/debug/trace", Method(http.MethodGet, traceHandler(e.trc)))
	mux.HandleFunc("/debug/snapshot", Method(http.MethodGet, e.handleDebugSnapshot))
	mux.HandleFunc("/", e.handleAttached)
	limit := e.opt.MaxBodyBytes
	return withRequestTelemetry(e.trc, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !e.ready.Load() && !telemetryPath(r.URL.Path) {
			if r.URL.Path == "/healthz" {
				WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
					"status":  "recovering",
					"durable": e.Durable(),
				})
				return
			}
			WriteError(w, http.StatusServiceUnavailable, "recovery in progress: replaying the write-ahead log")
			return
		}
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, limit)
		}
		mux.ServeHTTP(w, r)
	}))
}

// Method guards h: a request with any other method is answered 405
// "use <method>" in the API's JSON error shape and never reaches h.
// Every handler the engine and the fleet register goes through it, as
// do the attachments' endpoints; /healthz alone takes any method.
func Method(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			WriteError(w, http.StatusMethodNotAllowed, "use %s", method)
			return
		}
		h(w, r)
	}
}

// DecodeStatus maps a request-body decode error to an HTTP status: 413
// when the MaxBytesReader limit was hit, 400 otherwise. With WriteJSON
// and WriteError it is the engine API's reply convention, exported for
// the HTTP front-ends layered on the engine (internal/stream,
// internal/quality, internal/maint) so the error shape and the 413
// mapping stay in one place.
func DecodeStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// WriteJSON writes v as the indented JSON body of a reply with the
// given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	// Explicit charset and no-store on every JSON reply: /healthz and
	// /stats are point-in-time reads that an intermediary cache would
	// silently falsify.
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError replies with the API's error body, {"error": "<message>"}.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// parseVertex reads one vertex parameter from the request's parsed
// query string and range-checks it against a road network of n
// vertices. Handlers parse the query string once and pass it in.
func parseVertex(q url.Values, name string, n int) (roadnet.VertexID, error) {
	raw := q.Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing query parameter %q", name)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", name, err)
	}
	if v < 0 || v >= n {
		return 0, fmt.Errorf("parameter %q: vertex %d out of range [0,%d)", name, v, n)
	}
	return roadnet.VertexID(v), nil
}

func (e *Engine) toJSON(res core.RouteResult, s, d roadnet.VertexID) RouteJSON {
	road := e.Snapshot().Road()
	out := RouteJSON{
		Source:         int(s),
		Destination:    int(d),
		Path:           make([]int, len(res.Path)),
		Category:       res.Category.String(),
		Evidence:       res.Evidence.String(),
		UsedRegionPath: res.UsedRegionPath,
		RegionPath:     res.RegionPath,
	}
	for i, v := range res.Path {
		out.Path[i] = int(v)
	}
	if len(res.Path) >= 2 {
		out.LengthM = res.Path.Length(road)
		out.TravelTimeS = res.Path.Cost(road, roadnet.TT)
	}
	return out
}

func (e *Engine) handleRoute(w http.ResponseWriter, r *http.Request) {
	sp := obs.SpanFrom(r.Context())
	ps := sp.Start("http.parse")
	q, n := r.URL.Query(), e.Snapshot().Road().NumVertices()
	s, serr := parseVertex(q, "src", n)
	d, derr := parseVertex(q, "dst", n)
	ps.End()
	if serr != nil {
		WriteError(w, http.StatusBadRequest, "%v", serr)
		return
	}
	if derr != nil {
		WriteError(w, http.StatusBadRequest, "%v", derr)
		return
	}
	results, hit, gen := e.routeK(r.Context(), s, d, 1)
	if results[0].Evidence == core.EvidenceNone {
		WriteError(w, http.StatusNotFound, "no path from %d to %d", s, d)
		return
	}
	enc := sp.Start("http.encode")
	WriteJSON(w, http.StatusOK, routeReply{
		Routes:     []RouteJSON{e.toJSON(results[0], s, d)},
		Cached:     hit,
		Generation: gen,
	})
	enc.End()
}

func (e *Engine) handleAlternatives(w http.ResponseWriter, r *http.Request) {
	sp := obs.SpanFrom(r.Context())
	ps := sp.Start("http.parse")
	q, n := r.URL.Query(), e.Snapshot().Road().NumVertices()
	s, serr := parseVertex(q, "src", n)
	d, derr := parseVertex(q, "dst", n)
	k := 3
	var kerr error
	if raw := q.Get("k"); raw != "" {
		k, kerr = strconv.Atoi(raw)
		if kerr != nil || k < 1 || k > 16 {
			kerr = fmt.Errorf("parameter %q must be in [1,16]", "k")
		}
	}
	ps.End()
	if serr != nil {
		WriteError(w, http.StatusBadRequest, "%v", serr)
		return
	}
	if derr != nil {
		WriteError(w, http.StatusBadRequest, "%v", derr)
		return
	}
	if kerr != nil {
		WriteError(w, http.StatusBadRequest, "%v", kerr)
		return
	}
	results, hit, gen := e.routeK(r.Context(), s, d, k)
	if len(results) == 0 || results[0].Evidence == core.EvidenceNone {
		WriteError(w, http.StatusNotFound, "no path from %d to %d", s, d)
		return
	}
	reply := routeReply{Cached: hit, Generation: gen}
	for _, res := range results {
		reply.Routes = append(reply.Routes, e.toJSON(res, s, d))
	}
	enc := sp.Start("http.encode")
	WriteJSON(w, http.StatusOK, reply)
	enc.End()
}

func (e *Engine) handleIngest(w http.ResponseWriter, r *http.Request) {
	sp := obs.SpanFrom(r.Context())
	val := sp.Start("ingest.validate")
	var req ingestRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		val.End()
		WriteError(w, DecodeStatus(err), "decoding body: %v", err)
		return
	}
	if len(req.Paths) == 0 {
		val.End()
		WriteError(w, http.StatusBadRequest, "no paths in request")
		return
	}
	road := e.Snapshot().Road()
	n := road.NumVertices()
	ts := make([]*traj.Trajectory, 0, len(req.Paths))
	for i, raw := range req.Paths {
		if len(raw) < 2 {
			val.End()
			WriteError(w, http.StatusBadRequest, "path %d has fewer than 2 vertices", i)
			return
		}
		p := make(roadnet.Path, len(raw))
		for j, v := range raw {
			if v < 0 || v >= n {
				val.End()
				WriteError(w, http.StatusBadRequest, "path %d vertex %d out of range [0,%d)", i, v, n)
				return
			}
			p[j] = roadnet.VertexID(v)
		}
		if !p.Valid(road) {
			val.End()
			WriteError(w, http.StatusBadRequest, "path %d is not connected in the road network", i)
			return
		}
		// Engine-unique IDs: a per-request index would collide across
		// requests (and with the streaming pipeline).
		ts = append(ts, &traj.Trajectory{ID: e.NextTrajectoryID(), Truth: p})
	}
	val.End()
	// Paths arrive already map-matched (vertex sequences), so ingest
	// trusts them as ground truth.
	opt := e.opt.Ingest
	opt.SkipMapMatching = true
	st, gen, durable := e.ingestDurable(r.Context(), ts, opt)
	WriteJSON(w, http.StatusOK, ingestReply{
		Paths:              st.Paths,
		TouchedEdges:       len(st.TouchedEdges),
		UpgradedEdges:      st.UpgradedEdges,
		NewEdges:           st.NewEdges,
		Relearned:          st.Relearned,
		StalenessRatio:     st.StalenessRatio(),
		RebuildRecommended: st.RebuildRecommended,
		ElapsedMs:          float64(st.Elapsed.Microseconds()) / 1000,
		Generation:         gen,
		Durable:            durable,
	})
}

func (e *Engine) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, e.Stats())
}

func (e *Engine) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"generation": e.Generation(),
		"durable":    e.Durable(),
	})
}
