package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// idProbe is an attachment whose endpoint answers with the request-ID
// values its handler found on the request — what a handler nested under
// the telemetry middleware observes.
type idProbe struct{ fakeAttachment }

func (p *idProbe) Endpoint() (string, http.Handler) {
	return "/probe", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, strings.Join(r.Header.Values(requestIDHeader), ","))
	})
}

// TestRequestIDOneSpelling sends the header under two capitalizations
// and not at all, to an engine and through a fleet to a tenant engine
// (two nested middlewares): the ID is honoured or generated, echoed
// exactly once on the response, and is the one value the innermost
// handler sees on the request. An incoming ID is honoured only when it
// is 1–128 bytes of visible ASCII: a longer one (up to the server's
// header limit) or one with spaces or non-ASCII bytes is replaced by a
// generated ID, and the trace ring keeps no ID the server would not
// honour.
func TestRequestIDOneSpelling(t *testing.T) {
	base, _ := sharedWorld(t)
	tr := obs.NewTracer(obs.Config{SlowThreshold: -1})
	e := NewEngine(base.Clone(), Options{Tracer: tr})
	e.Attach(&idProbe{})
	engineSrv := httptest.NewServer(e.Handler())
	t.Cleanup(engineSrv.Close)

	f := NewFleet(Options{Tracer: tr})
	f.Attach(func(_ string, te *Engine) { te.Attach(&idProbe{}) })
	if _, err := f.Add("acity", base.Clone()); err != nil {
		t.Fatal(err)
	}
	fleetSrv := httptest.NewServer(f.Handler())
	t.Cleanup(fleetSrv.Close)

	longest := strings.Repeat("a", maxRequestIDLen)
	cases := []struct {
		spelling, id string
		honour       bool
	}{
		{"x-request-id", "caller-9", true},
		{"X-Request-ID", "caller-9", true},
		{"", "", false},
		{"X-Request-ID", longest, true},
		{"X-Request-ID", longest + "a", false},
		{"X-Request-ID", strings.Repeat("x", 512<<10), false},
		{"X-Request-ID", "caller 9", false},
		{"X-Request-ID", "caller-é", false},
	}
	for _, target := range []string{engineSrv.URL + "/probe", fleetSrv.URL + "/t/acity/probe"} {
		for _, c := range cases {
			req, err := http.NewRequest(http.MethodGet, target, nil)
			if err != nil {
				t.Fatal(err)
			}
			if c.spelling != "" {
				req.Header[c.spelling] = []string{c.id} // sent as spelled
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			seen, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			echoed := resp.Header.Values(requestIDHeader)
			if len(echoed) != 1 || echoed[0] == "" {
				t.Fatalf("%s [%q, %d-byte ID]: response carries %d IDs, want exactly one", target, c.spelling, len(c.id), len(echoed))
			}
			if got := echoed[0]; (got == c.id) != c.honour || !validRequestID(got) {
				t.Fatalf("%s [%q, %d-byte ID]: echoed a %d-byte ID (honoured %v, want %v)", target, c.spelling, len(c.id), len(got), got == c.id, c.honour)
			}
			if string(seen) != echoed[0] {
				t.Fatalf("%s [%q, %d-byte ID]: nested handler saw %d bytes, response says %q", target, c.spelling, len(c.id), len(seen), echoed[0])
			}
		}
	}
	traces := tr.Recent(100)
	if len(traces) == 0 {
		t.Fatal("no traces recorded")
	}
	for _, trc := range traces {
		if !validRequestID(trc.ID) {
			t.Fatalf("trace ring keeps a %d-byte request ID", len(trc.ID))
		}
	}
}
