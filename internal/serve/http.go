package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/traj"
	"repro/internal/wal"
)

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
// The two route endpoints reply with compact JSON appended straight
// from the engine's results (appendRouteReply) with Content-Length set;
// a route's length_m and travel_time_s are computed once, with the
// answer, and cached with it, so a cache hit re-walks nothing. Every
// other reply, errors included, is indented JSON from WriteJSON.
//
// Every endpoint's request body is bounded by maxBodyBytes; larger
// bodies are rejected with 413. Every response carries an X-Request-ID
// (honoring a well-formed incoming header), and — with a tracer
// configured (Options.Tracer) — each request is traced end to end.
//
// A durable engine has replayed its write-ahead log before
// NewDurableEngine returns, so every endpoint answers from the moment
// the handler exists.
func (e *Engine) Handler() http.Handler { return withRequestTelemetry(e.trc, e.api()) }

// api is the engine's HTTP API without the request-ID and tracing
// middleware: the mux behind the body limit. Handler wraps it; a fleet
// mounts it under /t/{name}, inside its own middleware.
func (e *Engine) api() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/route", Method(http.MethodGet, e.handleRoute))
	mux.HandleFunc("/route/alternatives", Method(http.MethodGet, e.handleAlternatives))
	mux.HandleFunc("/ingest", Method(http.MethodPost, e.handleIngest))
	handleTelemetry(mux, func() any { return e.Stats() }, e.health,
		func() any { return e.DebugSnapshotNow() }, e.WriteMetrics, e.trc)
	mux.HandleFunc("/", e.handleAttached)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil && r.Body != http.NoBody {
			r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		}
		mux.ServeHTTP(w, r)
	})
}

// handleTelemetry registers the five endpoints both front ends, an
// engine and a fleet, serve: the JSON replies of /stats, /healthz (any
// method) and /debug/snapshot, the /metrics exposition and the tracer's
// /debug/trace.
func handleTelemetry(mux *http.ServeMux, stats, health, snapshot func() any, metrics func(io.Writer) error, trc *obs.Tracer) {
	reply := func(v func() any) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) { WriteJSON(w, http.StatusOK, v()) }
	}
	mux.HandleFunc("/stats", Method(http.MethodGet, reply(stats)))
	mux.HandleFunc("/healthz", reply(health))
	mux.HandleFunc("/metrics", Method(http.MethodGet, promHandler(metrics)))
	mux.HandleFunc("/debug/trace", Method(http.MethodGet, traceHandler(trc)))
	mux.HandleFunc("/debug/snapshot", Method(http.MethodGet, reply(snapshot)))
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
	setJSONHeaders(w.Header())
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// The values of the two headers every JSON reply carries. The slices
// are shared by all replies and never written after this point: Header
// methods replace or append-by-copy (the slices are full), never store
// into a value in place.
var (
	jsonContentType = []string{"application/json; charset=utf-8"}
	noStore         = []string{"no-store"}
)

// setJSONHeaders marks a reply as JSON that must not be cached: explicit
// charset and no-store on every one, because /healthz, /stats and a
// route's "cached"/"generation" are point-in-time reads that an
// intermediary cache would silently falsify.
func setJSONHeaders(h http.Header) {
	h["Content-Type"] = jsonContentType
	h["Cache-Control"] = noStore
}

// WriteError replies with the API's error body, {"error": "<message>"}.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// rawQuery answers Get(key) as r.URL.Query().Get(key) would, without
// building the url.Values map when the query string needs no
// unescaping — the form every well-behaved client sends for integers. A
// query holding '%' or '+' (escapes) or ';' (a separator url.ParseQuery
// rejects pair by pair) takes the standard parser, so what is accepted
// and what each error says do not depend on the path taken.
type rawQuery struct {
	raw  string
	vals url.Values // non-nil: the query went through url.ParseQuery
}

func queryOf(r *http.Request) rawQuery {
	if raw := r.URL.RawQuery; !strings.ContainsAny(raw, "%+;") {
		return rawQuery{raw: raw}
	}
	return rawQuery{vals: r.URL.Query()} // never nil
}

// Get returns the first value of key, "" when there is none.
func (q rawQuery) Get(key string) string {
	if q.vals != nil {
		return q.vals.Get(key)
	}
	for rest := q.raw; rest != ""; {
		var pair string
		pair, rest, _ = strings.Cut(rest, "&")
		if k, v, _ := strings.Cut(pair, "="); k == key {
			return v
		}
	}
	return ""
}

// parseVertex reads one vertex parameter from the request's query and
// range-checks it against a road network of n vertices.
func parseVertex(q rawQuery, name string, n int) (roadnet.VertexID, error) {
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

func (e *Engine) handleRoute(w http.ResponseWriter, r *http.Request) {
	e.serveRoutes(w, r, 1, false)
}

func (e *Engine) handleAlternatives(w http.ResponseWriter, r *http.Request) {
	e.serveRoutes(w, r, 3, true)
}

// serveRoutes answers GET /route (k fixed at 1) and GET
// /route/alternatives (k from the query when kParam, else the default
// given). The reply's bytes come from writeRouteReply's append encoder,
// straight from the engine's results: on a cache hit nothing is
// recomputed and nothing is copied but the bytes themselves.
func (e *Engine) serveRoutes(w http.ResponseWriter, r *http.Request, k int, kParam bool) {
	sp := obs.SpanFrom(r.Context())
	ps := sp.Start("http.parse")
	q, road := queryOf(r), e.Snapshot().Road()
	s, serr := parseVertex(q, "src", road.NumVertices())
	d, derr := parseVertex(q, "dst", road.NumVertices())
	var kerr error
	if kParam {
		if raw := q.Get("k"); raw != "" {
			k, kerr = strconv.Atoi(raw)
			if kerr != nil || k < 1 || k > maxAlternatives {
				kerr = fmt.Errorf("parameter %q must be in [1,%d]", "k", maxAlternatives)
			}
		}
	}
	ps.End()
	for _, err := range [...]error{serr, derr, kerr} {
		if err != nil {
			WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	res, meas, hit, gen := e.routeK(r.Context(), s, d, k)
	if len(res) == 0 || res[0].Evidence == core.EvidenceNone {
		WriteError(w, http.StatusNotFound, "no path from %d to %d", s, d)
		return
	}
	enc := sp.Start("http.encode")
	writeRouteReply(w, road, s, d, res, meas, hit, gen)
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
	st, gen, durable := e.ingestDurable(r.Context(), wal.Batch{SkipMapMatching: true, Trajs: ts})
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

// health is the engine's /healthz reply.
func (e *Engine) health() any {
	return map[string]any{
		"status":     "ok",
		"generation": e.Generation(),
		"durable":    e.Durable(),
	}
}
