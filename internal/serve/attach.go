package serve

import (
	"net/http"

	"repro/internal/traj"
)

// Attachment is something that rides on an engine: it serves one
// endpoint of the engine's HTTP API, sees every applied ingest batch,
// and reports through its block of Stats; what a publish installs is
// the engine's (Engine.Drift, Engine.Accrual). internal/stream's Ingestor (POST /stream), internal/quality's
// Observer (GET /debug/quality) and internal/maint's Maintainer
// (GET /debug/maint) implement it; Engine.Attach registers one.
type Attachment interface {
	// Endpoint names the path served on the engine's HTTP API (under
	// /t/{tenant} behind a fleet) and its handler. Attach calls it once.
	Endpoint() (path string, h http.Handler)
	// OfferTrajectories presents one applied ingest batch. It runs on
	// the write path under writeMu and must never block: sample, copy,
	// enqueue or drop.
	OfferTrajectories(ts []*traj.Trajectory)
	// Report fills the attachment's block of st (Stats.Stream, .Quality
	// or .Maintenance), which /stats, /metrics and /debug/snapshot read.
	Report(st *Stats)
	// Close stops whatever the attachment runs in the background. The
	// engine calls it once, from Engine.Close or Shutdown, before the
	// write-ahead log is released, so a final flush through the engine
	// is still journaled. Report must keep working afterwards.
	Close()
}

// attached is one registered Attachment with its endpoint resolved.
type attached struct {
	Attachment
	path    string
	handler http.Handler
}

// Attach registers a on the engine, after those already there; the
// engine closes it with itself. Attaching on an endpoint that has an
// attachment replaces it: the old one is offered nothing further, and
// stopping it stays its owner's business. Safe at any time, also after
// Handler() was built and under traffic — the list is copy-on-write,
// and its readers (the write path, Stats, the HTTP dispatch) take no
// lock.
func (e *Engine) Attach(a Attachment) {
	path, h := a.Endpoint()
	for {
		old := e.attachments.Load()
		next := make([]attached, 0, len(*old)+1)
		for _, o := range *old {
			if o.path != path {
				next = append(next, o)
			}
		}
		next = append(next, attached{Attachment: a, path: path, handler: h})
		if e.attachments.CompareAndSwap(old, &next) {
			return
		}
	}
}

// reportAttached lets every attachment fill its block of st.
func (e *Engine) reportAttached(st *Stats) {
	for _, a := range *e.attachments.Load() {
		a.Report(st)
	}
}

// handleAttached is the engine mux's fallback: the attachment serving
// the requested path answers, and a path nothing is attached at is 404.
// Registered paths never reach it, so /route pays nothing for the list.
func (e *Engine) handleAttached(w http.ResponseWriter, r *http.Request) {
	for _, a := range *e.attachments.Load() {
		if a.path == r.URL.Path {
			a.handler.ServeHTTP(w, r)
			return
		}
	}
	WriteError(w, http.StatusNotFound, "nothing is attached at %s on this engine", r.URL.Path)
}
