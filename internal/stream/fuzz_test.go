package stream

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/serve"
)

// FuzzStreamHandler posts arbitrary NDJSON bodies to POST /stream, with
// and without ?close=1 and ?flush=1, on a non-durable engine. The
// handler must not panic and must answer 200, 400 or 413, never
// anything else. The corpus starts from the handler tests' bodies: a
// simulated trip's points, a walk ended by a control record, and a lone
// point.
func FuzzStreamHandler(f *testing.F) {
	_, router, live := buildStreamWorld(f, 43, 120)
	f.Add(ndjson(PointsFrom(live[:2])).Bytes(), true, true)
	f.Add([]byte(`{"vehicle":"v1","t":0,"x":10,"y":10}
{"vehicle":"v1","t":5,"x":50,"y":10}
{"vehicle":"v1","close":true}`), false, true)
	f.Add([]byte(`{"vehicle":"v1","t":1,"x":10,"y":10}`), false, false)
	f.Add([]byte(`{"t":1}`), false, false)
	e := serve.NewEngine(router, serve.Options{})
	ing := Attach(e, Config{})
	f.Cleanup(ing.Close)
	h := e.Handler()
	f.Fuzz(func(t *testing.T, body []byte, closeAll, flush bool) {
		url := "/stream?"
		if closeAll {
			url += "close=1&"
		}
		if flush {
			url += "flush=1"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
	})
}
