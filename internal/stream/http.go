package stream

import (
	"encoding/json"
	"io"
	"net/http"

	"repro/internal/obs"
	"repro/internal/serve"
)

// streamReply is the POST /stream response body.
type streamReply struct {
	// Points and Control count the accepted data and control records;
	// Vehicles the distinct vehicles seen in this request.
	Points   int `json:"points"`
	Control  int `json:"control"`
	Vehicles int `json:"vehicles"`
	// Closed reports that ?close=1 ended every session seen in this
	// request; Flushed is the batch size ?flush=1 pushed into the
	// engine.
	Closed  bool `json:"closed,omitempty"`
	Flushed int  `json:"flushed,omitempty"`
	// Durable reports that the engine journals ingested batches to a
	// write-ahead log: trajectories closed from these points will be
	// appended to it when their batch flushes, and so survive a
	// restart. False means a restart loses whatever this stream
	// teaches the router.
	Durable bool `json:"durable"`
}

// Handler returns the pipeline's NDJSON ingestion endpoint, mounted as
// POST /stream by Attach (and therefore as POST /t/{tenant}/stream
// behind a fleet):
//
//	POST /stream
//	{"vehicle":"v1","t":12.5,"x":1041.2,"y":887.0}
//	{"vehicle":"v7","t":12.9,"x":...,"y":...}
//	{"vehicle":"v1","close":true}
//
// One JSON object per line; a record with "close" ends that vehicle's
// session. Query parameters: close=1 closes every vehicle seen in
// this request at EOF (for feeds that batch whole trips per request);
// flush=1 synchronously flushes the batch queue before replying.
// Records already pushed stay pushed when a later record fails to
// parse (at-least-once semantics); the request body is bounded by the
// engine's 8 MiB body limit, so continuous feeds chunk their uploads.
func (ing *Ingestor) Handler() http.Handler {
	return serve.Method(http.MethodPost, func(w http.ResponseWriter, r *http.Request) {
		sp := obs.SpanFrom(r.Context())
		sess := sp.Start("stream.sessionize")
		dec := json.NewDecoder(r.Body)
		var reply streamReply
		seen := make(map[string]bool)
		for {
			var p Point
			err := dec.Decode(&p)
			if err == io.EOF {
				break
			}
			if err != nil {
				sess.End()
				serve.WriteError(w, serve.DecodeStatus(err), "record %d: %v", reply.Points+reply.Control+1, err)
				return
			}
			if p.Vehicle == "" {
				sess.End()
				serve.WriteError(w, http.StatusBadRequest, "record %d: missing vehicle", reply.Points+reply.Control+1)
				return
			}
			seen[p.Vehicle] = true
			if p.Close {
				reply.Control++
			} else {
				reply.Points++
			}
			ing.Push(p)
		}
		if r.URL.Query().Get("close") == "1" {
			for v := range seen {
				ing.CloseVehicle(v)
			}
			reply.Closed = true
		}
		sess.End()
		if r.URL.Query().Get("flush") == "1" {
			fl := sp.Start("stream.flush")
			reply.Flushed = ing.FlushCtx(r.Context())
			fl.End()
		}
		reply.Vehicles = len(seen)
		reply.Durable = ing.eng.Durable()
		serve.WriteJSON(w, http.StatusOK, reply)
	})
}
