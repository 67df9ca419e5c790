package serve_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/maint"
	"repro/internal/quality"
	"repro/internal/roadnet"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/traj"
)

// TestMethodGuardTable drives every endpoint of the engine API, of the
// fleet API and of the three attachments — on a lone engine and under
// /t/{tenant} — with the wrong method and with the right one. The wrong
// method answers 405 with the JSON error body recorded before the guard
// moved from fourteen hand-copied checks to one helper applied where
// the handler is registered; the right method answers as it did
// (anything but 405: these requests carry no parameters, so most are a
// 400 from the handler behind the guard). /healthz takes any method.
func TestMethodGuardTable(t *testing.T) {
	road := roadnet.Generate(roadnet.Tiny(5))
	ts := traj.NewSimulator(road, traj.D2Like(5, 300)).Run()
	r, err := core.Build(road, ts, core.Options{SkipMapMatching: true})
	if err != nil {
		t.Fatal(err)
	}
	attach := func(_ string, e *serve.Engine) {
		stream.Attach(e, stream.Config{})
		quality.Attach(e, quality.Config{})
		maint.Attach(e, maint.Config{})
	}

	e := serve.NewEngine(r.IngestClone(), serve.Options{})
	defer e.Close()
	attach("", e)
	f := serve.NewFleet(serve.Options{})
	defer f.Close()
	f.Attach(attach)
	if _, err := f.Add("acity", r.IngestClone()); err != nil {
		t.Fatal(err)
	}

	engineAPI := []struct{ path, method string }{
		{"/route", http.MethodGet},
		{"/route/alternatives", http.MethodGet},
		{"/ingest", http.MethodPost},
		{"/stats", http.MethodGet},
		{"/metrics", http.MethodGet},
		{"/debug/trace", http.MethodGet},
		{"/debug/snapshot", http.MethodGet},
		{"/stream", http.MethodPost},
		{"/debug/quality", http.MethodGet},
		{"/debug/maint", http.MethodGet},
	}
	fleetAPI := []struct{ path, method string }{
		{"/tenants", http.MethodGet},
		{"/stats", http.MethodGet},
		{"/metrics", http.MethodGet},
		{"/debug/trace", http.MethodGet},
		{"/debug/snapshot", http.MethodGet},
		{"/debug/quality", http.MethodGet},
	}
	for _, ep := range engineAPI {
		fleetAPI = append(fleetAPI, struct{ path, method string }{"/t/acity" + ep.path, ep.method})
	}

	do := func(h http.Handler, method, path string) (int, string, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader("")))
		body, _ := io.ReadAll(rec.Body)
		return rec.Code, rec.Header().Get("Content-Type"), string(body)
	}
	for _, api := range []struct {
		name      string
		h         http.Handler
		endpoints []struct{ path, method string }
	}{{"engine", e.Handler(), engineAPI}, {"fleet", f.Handler(), fleetAPI}} {
		for _, ep := range api.endpoints {
			for _, wrong := range []string{http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete} {
				if wrong == ep.method {
					continue
				}
				code, ctype, body := do(api.h, wrong, ep.path)
				want := "{\n  \"error\": \"use " + ep.method + "\"\n}\n"
				if code != http.StatusMethodNotAllowed || body != want || ctype != "application/json; charset=utf-8" {
					t.Errorf("%s: %s %s = %d %q %q, want 405 with %q", api.name, wrong, ep.path, code, ctype, body, want)
				}
			}
			if code, _, body := do(api.h, ep.method, ep.path); code == http.StatusMethodNotAllowed || code == http.StatusNotFound {
				t.Errorf("%s: %s %s = %d %q, want the handler's own answer", api.name, ep.method, ep.path, code, body)
			}
		}
		for _, method := range []string{http.MethodGet, http.MethodPost, http.MethodHead} {
			path := "/healthz"
			if code, _, body := do(api.h, method, path); code != http.StatusOK {
				t.Errorf("%s: %s %s = %d %q, want 200", api.name, method, path, code, body)
			}
		}
	}
	if code, _, _ := do(f.Handler(), http.MethodPost, "/t/acity/healthz"); code != http.StatusOK {
		t.Errorf("fleet: POST /t/acity/healthz = %d, want 200", code)
	}
}
