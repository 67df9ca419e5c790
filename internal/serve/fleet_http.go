package serve

import (
	"maps"
	"net/http"
	"slices"
	"strings"
)

// TenantInfo is one row of the /tenants listing.
type TenantInfo struct {
	Name string `json:"name"`
	// SnapshotGeneration is the tenant engine's live generation
	// (bumps on every ingest or hot swap).
	SnapshotGeneration uint64 `json:"snapshot_generation"`
	// ArtifactName/ArtifactGeneration come from the served artifact's
	// persisted metadata (empty/zero for routers built in-process and
	// never saved).
	ArtifactName       string `json:"artifact_name,omitempty"`
	ArtifactGeneration uint64 `json:"artifact_generation"`
	Vertices           int    `json:"vertices"`
	Regions            int    `json:"regions"`
	Queries            uint64 `json:"queries"`
}

// Handler returns the fleet's HTTP API. Tenant-addressed routes nest
// the full single-engine API under /t/{tenant}:
//
//	GET  /t/{tenant}/route?src=S&dst=D
//	GET  /t/{tenant}/route/alternatives?src=S&dst=D&k=K
//	POST /t/{tenant}/ingest
//	GET  /t/{tenant}/stats
//	GET  /t/{tenant}/healthz
//
// plus fleet-level routes:
//
//	GET  /tenants          tenant listing (generations, artifact metadata)
//	GET  /stats            aggregate FleetStats
//	GET  /healthz          liveness + tenant count
//	GET  /metrics          Prometheus exposition, every tenant labeled
//	GET  /debug/trace      recent / slow request traces (shared tracer)
//	GET  /debug/snapshot   per-tenant non-blocking internals snapshot
//	GET  /debug/quality    per-tenant model-quality stats (tenant detail
//	                       incl. exemplars at /t/{tenant}/debug/quality)
//
// Requests for tenants not in the registry return 404. The fleet's
// middleware assigns every request its ID and, with a tracer configured
// (Options.Tracer — shared by every tenant engine), opens its root
// trace; a tenant's engine API is mounted without a middleware of its
// own and adds its stages under that root.
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/t/", f.handleTenant)
	mux.HandleFunc("/tenants", Method(http.MethodGet, f.handleTenants))
	handleTelemetry(mux, func() any { return f.Stats() }, f.health, f.debugSnapshot, f.WriteMetrics, f.opt.Tracer)
	mux.HandleFunc("/debug/quality", Method(http.MethodGet, f.handleQuality))
	return withRequestTelemetry(f.opt.Tracer, mux)
}

// handleTenant routes /t/{tenant}/... to the tenant's engine handler.
func (f *Fleet) handleTenant(w http.ResponseWriter, r *http.Request) {
	name, sub, _ := splitTenant(r.URL.Path)
	if name == "" {
		WriteError(w, http.StatusNotFound, "missing tenant name; use /t/{tenant}/route")
		return
	}
	t, ok := f.registry()[name]
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown tenant %q", name)
		return
	}
	if sub == "" || sub == "/" {
		// A bare /t/{tenant} would strip to "" and the engine mux would
		// 301-redirect to the fleet root, losing the tenant context;
		// /t/{tenant}/ names no endpoint either.
		WriteError(w, http.StatusNotFound, "missing endpoint; use /t/%s/route", name)
		return
	}
	t.handler.ServeHTTP(w, r)
}

// splitTenant splits a fleet path /t/{name}{rest} into the tenant's
// name and the path below it, rest, which is "" or starts with '/'. ok
// is false for a path outside /t/.
func splitTenant(p string) (name, rest string, ok bool) {
	if p, ok = strings.CutPrefix(p, "/t/"); !ok {
		return "", "", false
	}
	if i := strings.IndexByte(p, '/'); i >= 0 {
		return p[:i], p[i:], true
	}
	return p, "", true
}

func (f *Fleet) handleTenants(w http.ResponseWriter, r *http.Request) {
	reg := f.registry()
	infos := make([]TenantInfo, 0, len(reg))
	for _, name := range slices.Sorted(maps.Keys(reg)) {
		rd := reg[name].eng.read()
		meta := rd.router.Meta()
		infos = append(infos, TenantInfo{
			Name:               name,
			SnapshotGeneration: rd.st.SnapshotGeneration,
			ArtifactName:       meta.Name,
			ArtifactGeneration: meta.Generation,
			Vertices:           rd.router.Road().NumVertices(),
			Regions:            rd.router.Stats().Regions,
			Queries:            rd.st.Queries,
		})
	}
	WriteJSON(w, http.StatusOK, map[string]any{"tenants": infos})
}

// handleQuality serves the fleet-level quality overview: every
// tenant's QualityStats keyed by name (tenants without an observer are
// omitted), asked of the quality observer alone, not of every
// attachment's Report. Exemplar detail lives on the per-tenant endpoint.
func (f *Fleet) handleQuality(w http.ResponseWriter, r *http.Request) {
	per := make(map[string]QualityStats)
	for name, t := range f.registry() {
		for _, a := range *t.eng.attachments.Load() {
			if q, ok := a.Attachment.(interface{ QualityStats() QualityStats }); ok {
				per[name] = q.QualityStats()
			}
		}
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"tenants":    len(per),
		"per_tenant": per,
	})
}

// health is the fleet's /healthz reply.
func (f *Fleet) health() any {
	reg := f.registry()
	generations := make(map[string]uint64, len(reg))
	for name, t := range reg {
		generations[name] = t.eng.Generation()
	}
	return map[string]any{
		"status":      "ok",
		"tenants":     len(reg),
		"generations": generations,
	}
}
