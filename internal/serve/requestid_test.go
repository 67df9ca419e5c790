package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
// handler sees on the request.
func TestRequestIDOneSpelling(t *testing.T) {
	base, _ := sharedWorld(t)
	e := NewEngine(base.Clone(), Options{})
	e.Attach(&idProbe{})
	engineSrv := httptest.NewServer(e.Handler())
	t.Cleanup(engineSrv.Close)

	f := NewFleet(Options{})
	f.Attach(func(_ string, te *Engine) func() { te.Attach(&idProbe{}); return nil })
	if _, err := f.Add("acity", base.Clone()); err != nil {
		t.Fatal(err)
	}
	fleetSrv := httptest.NewServer(f.Handler())
	t.Cleanup(fleetSrv.Close)

	for _, target := range []string{engineSrv.URL + "/probe", fleetSrv.URL + "/t/acity/probe"} {
		for _, spelling := range []string{"x-request-id", "X-Request-ID", ""} {
			req, err := http.NewRequest(http.MethodGet, target, nil)
			if err != nil {
				t.Fatal(err)
			}
			if spelling != "" {
				req.Header[spelling] = []string{"caller-9"} // sent as spelled
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			seen, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			echoed := resp.Header.Values(requestIDHeader)
			if len(echoed) != 1 || echoed[0] == "" {
				t.Fatalf("%s [%q]: response carries %q, want exactly one ID", target, spelling, echoed)
			}
			if spelling != "" && echoed[0] != "caller-9" {
				t.Fatalf("%s [%q]: incoming ID not honoured: %q", target, spelling, echoed[0])
			}
			if string(seen) != echoed[0] {
				t.Fatalf("%s [%q]: nested handler saw %q, response says %q", target, spelling, seen, echoed[0])
			}
		}
	}
}
