package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func newTestServer(t *testing.T) (*Engine, *httptest.Server) {
	t.Helper()
	base, _ := sharedWorld(t)
	e := NewEngine(base.Clone(), Options{})
	srv := httptest.NewServer(e.Handler())
	t.Cleanup(srv.Close)
	return e, srv
}

func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d want %d", url, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
}

func TestHTTPRoute(t *testing.T) {
	e, srv := newTestServer(t)
	_, fresh := sharedWorld(t)
	q := queries(fresh, 1)[0]

	var reply struct {
		Routes     []RouteJSON `json:"routes"`
		Cached     bool        `json:"cached"`
		Generation uint64      `json:"generation"`
	}
	url := fmt.Sprintf("%s/route?src=%d&dst=%d", srv.URL, q.Src, q.Dst)
	getJSON(t, url, http.StatusOK, &reply)
	if len(reply.Routes) != 1 {
		t.Fatalf("routes = %d want 1", len(reply.Routes))
	}
	r0 := reply.Routes[0]
	if r0.Source != int(q.Src) || r0.Destination != int(q.Dst) {
		t.Fatalf("endpoints echoed wrong: %+v", r0)
	}
	if len(r0.Path) < 2 || r0.Path[0] != int(q.Src) || r0.Path[len(r0.Path)-1] != int(q.Dst) {
		t.Fatalf("path endpoints wrong: %v", r0.Path)
	}
	if r0.LengthM <= 0 || r0.TravelTimeS <= 0 {
		t.Fatalf("missing path costs: %+v", r0)
	}
	if reply.Generation != e.Generation() {
		t.Fatalf("generation = %d want %d", reply.Generation, e.Generation())
	}

	// Second fetch must be served from cache.
	getJSON(t, url, http.StatusOK, &reply)
	if !reply.Cached {
		t.Fatal("repeat request not cached")
	}
}

func TestHTTPRouteValidation(t *testing.T) {
	_, srv := newTestServer(t)
	getJSON(t, srv.URL+"/route?dst=1", http.StatusBadRequest, nil)
	getJSON(t, srv.URL+"/route?src=abc&dst=1", http.StatusBadRequest, nil)
	getJSON(t, srv.URL+"/route?src=1&dst=99999999", http.StatusBadRequest, nil)
	resp, err := http.Post(srv.URL+"/route?src=1&dst=2", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /route: status %d", resp.StatusCode)
	}
}

// TestHTTPAlternativesValidation pins the 400 (never 500, never panic)
// contract for malformed alternatives queries: missing or non-numeric
// endpoints, out-of-range vertices, and k outside [1,16] — including
// k=0 and negative k.
func TestHTTPAlternativesValidation(t *testing.T) {
	_, srv := newTestServer(t)
	_, fresh := sharedWorld(t)
	q := queries(fresh, 1)[0]
	for _, bad := range []string{
		"/route/alternatives?dst=1",                                           // missing src
		"/route/alternatives?src=1",                                           // missing dst
		"/route/alternatives?src=&dst=1",                                      // empty src
		"/route/alternatives?src=abc&dst=1",                                   // non-numeric src
		"/route/alternatives?src=1&dst=xyz",                                   // non-numeric dst
		"/route/alternatives?src=1&dst=99999999",                              // dst out of range
		"/route/alternatives?src=-5&dst=1",                                    // negative vertex
		fmt.Sprintf("/route/alternatives?src=%d&dst=%d&k=0", q.Src, q.Dst),    // k = 0
		fmt.Sprintf("/route/alternatives?src=%d&dst=%d&k=-3", q.Src, q.Dst),   // negative k
		fmt.Sprintf("/route/alternatives?src=%d&dst=%d&k=many", q.Src, q.Dst), // non-numeric k
		fmt.Sprintf("/route/alternatives?src=%d&dst=%d&k=99", q.Src, q.Dst),   // k too large
	} {
		getJSON(t, srv.URL+bad, http.StatusBadRequest, nil)
	}
	// The well-formed variant still works after all the rejections.
	getJSON(t, fmt.Sprintf("%s/route/alternatives?src=%d&dst=%d&k=2", srv.URL, q.Src, q.Dst),
		http.StatusOK, nil)
}

func TestHTTPAlternatives(t *testing.T) {
	_, srv := newTestServer(t)
	_, fresh := sharedWorld(t)
	q := queries(fresh, 1)[0]
	var reply struct {
		Routes []RouteJSON `json:"routes"`
	}
	url := fmt.Sprintf("%s/route/alternatives?src=%d&dst=%d&k=3", srv.URL, q.Src, q.Dst)
	getJSON(t, url, http.StatusOK, &reply)
	if len(reply.Routes) < 1 || len(reply.Routes) > 3 {
		t.Fatalf("alternatives = %d", len(reply.Routes))
	}
	getJSON(t, fmt.Sprintf("%s/route/alternatives?src=%d&dst=%d&k=99", srv.URL, q.Src, q.Dst),
		http.StatusBadRequest, nil)
}

func TestHTTPIngestAndHealth(t *testing.T) {
	e, srv := newTestServer(t)
	_, fresh := sharedWorld(t)

	var health struct {
		Status     string `json:"status"`
		Generation uint64 `json:"generation"`
	}
	getJSON(t, srv.URL+"/healthz", http.StatusOK, &health)
	if health.Status != "ok" || health.Generation != 1 {
		t.Fatalf("healthz = %+v", health)
	}

	// Ingest a few real trajectory paths over the wire.
	var body struct {
		Paths [][]int `json:"paths"`
	}
	for _, tr := range fresh[:5] {
		p := make([]int, len(tr.Truth))
		for i, v := range tr.Truth {
			p[i] = int(v)
		}
		body.Paths = append(body.Paths, p)
	}
	raw, _ := json.Marshal(body)
	resp, err := http.Post(srv.URL+"/ingest", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /ingest: status %d", resp.StatusCode)
	}
	var ing struct {
		Paths      int    `json:"paths"`
		Generation uint64 `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	if ing.Paths != 5 {
		t.Fatalf("ingested paths = %d want 5", ing.Paths)
	}
	if ing.Generation != 2 || e.Generation() != 2 {
		t.Fatalf("generation after ingest = %d", ing.Generation)
	}

	// Bad ingest bodies.
	for _, bad := range []string{`{}`, `{"paths":[[1]]}`, `{"paths":[[1, 99999999]]}`, `not json`} {
		resp, err := http.Post(srv.URL+"/ingest", "application/json", bytes.NewReader([]byte(bad)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad body %q: status %d", bad, resp.StatusCode)
		}
	}
}

func TestHTTPStats(t *testing.T) {
	_, srv := newTestServer(t)
	_, fresh := sharedWorld(t)
	q := queries(fresh, 1)[0]
	getJSON(t, fmt.Sprintf("%s/route?src=%d&dst=%d", srv.URL, q.Src, q.Dst), http.StatusOK, nil)
	var st Stats
	getJSON(t, srv.URL+"/stats", http.StatusOK, &st)
	if st.Queries == 0 || st.SnapshotGeneration == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestHTTPBodyLimit: request bodies beyond maxBodyBytes are rejected
// with 413, on /ingest and on every other endpoint the limit middleware
// wraps.
func TestHTTPBodyLimit(t *testing.T) {
	base, _ := sharedWorld(t)
	e := NewEngine(base.Clone(), Options{})
	srv := httptest.NewServer(e.Handler())
	t.Cleanup(srv.Close)

	// One path of zeros, just over the limit.
	raw := []byte(`{"paths":[[` + strings.Repeat("0,", maxBodyBytes/2) + `0]]}`)
	if len(raw) <= maxBodyBytes {
		t.Fatalf("body of %d bytes is not over the %d limit", len(raw), maxBodyBytes)
	}
	resp, err := http.Post(srv.URL+"/ingest", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize /ingest: status %d want 413", resp.StatusCode)
	}
	var msg struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil || msg.Error == "" {
		t.Fatalf("413 reply carries no error message (%v)", err)
	}

	// A small body still works.
	_, fresh := sharedWorld(t)
	var ok struct {
		Paths [][]int `json:"paths"`
	}
	p := make([]int, 0, len(fresh[0].Truth))
	for _, v := range fresh[0].Truth {
		p = append(p, int(v))
	}
	ok.Paths = [][]int{p}
	raw, _ = json.Marshal(ok)
	resp2, err := http.Post(srv.URL+"/ingest", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("small /ingest: status %d", resp2.StatusCode)
	}
}

// TestHTTPStreamUnattached: /stream exists on the mux but reports 404
// until a streaming pipeline is attached.
func TestHTTPStreamUnattached(t *testing.T) {
	_, srv := newTestServer(t)
	resp, err := http.Post(srv.URL+"/stream", "application/x-ndjson", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unattached /stream: status %d want 404", resp.StatusCode)
	}
}

// TestHTTPIngestIDsUnique: trajectory IDs are drawn from the engine
// counter, so they cannot collide across requests (the old per-request
// index did).
func TestHTTPIngestIDsUnique(t *testing.T) {
	base, fresh := sharedWorld(t)
	e := NewEngine(base.IngestClone(), Options{})
	srv := httptest.NewServer(e.Handler())
	t.Cleanup(srv.Close)

	post := func(n int) {
		t.Helper()
		var body struct {
			Paths [][]int `json:"paths"`
		}
		for _, tr := range fresh[:n] {
			p := make([]int, len(tr.Truth))
			for i, v := range tr.Truth {
				p[i] = int(v)
			}
			body.Paths = append(body.Paths, p)
		}
		raw, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+"/ingest", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /ingest: status %d", resp.StatusCode)
		}
	}
	post(3)
	seq1 := e.NextTrajectoryID()
	if seq1 < 3 {
		t.Fatalf("counter = %d after 3 ingested paths; IDs would collide across requests", seq1)
	}
	post(2)
	seq2 := e.NextTrajectoryID()
	if seq2 <= seq1 {
		t.Fatalf("counter did not advance across requests: %d -> %d", seq1, seq2)
	}
}
