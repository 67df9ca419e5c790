package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/worldgen"
)

// FuzzIngestHandler posts arbitrary bodies to POST /ingest on a
// non-durable engine over the bench city. The handler must not panic,
// must answer 200, 400 or 413 and never anything else, and a 200 must
// advance the engine's generation by exactly one (a refusal by none).
// The corpus starts from TestHTTPIngestAndHealth's bodies: five held-out
// paths, then the four it expects refused.
func FuzzIngestHandler(f *testing.F) {
	w := worldgen.Build(worldgen.MustScale(worldgen.ScaleBench, 1))
	base, err := core.Build(w.Road, w.Train, core.Options{SkipMapMatching: true})
	if err != nil {
		f.Fatal(err)
	}
	var good struct {
		Paths [][]int `json:"paths"`
	}
	for _, tr := range w.Test[:5] {
		p := make([]int, len(tr.Truth))
		for i, v := range tr.Truth {
			p[i] = int(v)
		}
		good.Paths = append(good.Paths, p)
	}
	raw, _ := json.Marshal(good)
	f.Add(raw)
	for _, bad := range []string{`{}`, `{"paths":[[1]]}`, `{"paths":[[1, 99999999]]}`, `not json`} {
		f.Add([]byte(bad))
	}
	e := NewEngine(base, Options{})
	h := e.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		before := e.Generation()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body)))
		after := e.Generation()
		switch rec.Code {
		case http.StatusOK:
			if after != before+1 {
				t.Fatalf("200 moved the generation %d -> %d, want one step", before, after)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if after != before {
				t.Fatalf("%d moved the generation %d -> %d", rec.Code, before, after)
			}
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
	})
}
