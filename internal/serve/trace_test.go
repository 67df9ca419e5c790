package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

type traceReply struct {
	Tracer obs.TracerStats `json:"tracer"`
	Traces []obs.Trace     `json:"traces"`
}

func getTraces(t *testing.T, url string) traceReply {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	var reply traceReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	return reply
}

// TestTracedRouteSpanTree is the PR's acceptance test: one route request
// through the HTTP stack must produce a span tree with at least five
// named stages, retrievable via /debug/trace, and — with the slow
// threshold forced low — appear in the slow-query log too.
func TestTracedRouteSpanTree(t *testing.T) {
	base, fresh := sharedWorld(t)
	tr := obs.NewTracer(obs.Config{SlowThreshold: time.Nanosecond})
	e := NewEngine(base.Clone(), Options{Tracer: tr})
	srv := httptest.NewServer(e.Handler())
	t.Cleanup(srv.Close)

	q := queries(fresh, 1)[0]
	resp, err := http.Get(fmt.Sprintf("%s/route?src=%d&dst=%d", srv.URL, q.Src, q.Dst))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	reqID := resp.Header.Get("X-Request-ID")
	if reqID == "" {
		t.Fatal("response missing generated X-Request-ID")
	}

	reply := getTraces(t, srv.URL+"/debug/trace?n=10")
	if len(reply.Traces) != 1 {
		t.Fatalf("traces = %d, want 1 (telemetry endpoints must not self-trace)", len(reply.Traces))
	}
	trace := reply.Traces[0]
	if trace.ID != reqID {
		t.Fatalf("trace ID %q != response X-Request-ID %q", trace.ID, reqID)
	}
	if trace.Name != "GET /route" {
		t.Fatalf("root name = %q", trace.Name)
	}
	names := map[string]bool{}
	for _, s := range trace.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"GET /route", "http.parse", "cache.lookup", "route.compute", "snapshot.acquire", "http.encode"} {
		if !names[want] {
			t.Fatalf("span tree missing stage %q; have %v", want, names)
		}
	}
	if len(names) < 5 {
		t.Fatalf("only %d named stages", len(names))
	}
	// Root must be parent -1; every other span's parent must be in range.
	if trace.Spans[0].Parent != -1 {
		t.Fatalf("root parent = %d", trace.Spans[0].Parent)
	}
	for i, s := range trace.Spans[1:] {
		if s.Parent < 0 || s.Parent >= len(trace.Spans) {
			t.Fatalf("span %d (%q) has out-of-range parent %d", i+1, s.Name, s.Parent)
		}
	}

	// With a 1ns threshold the request is slow by definition.
	slow := getTraces(t, srv.URL+"/debug/trace?slow=1")
	if len(slow.Traces) != 1 || !slow.Traces[0].Slow {
		t.Fatalf("slow log = %+v", slow.Traces)
	}
	if slow.Tracer.SlowTraces != 1 {
		t.Fatalf("tracer stats = %+v", slow.Tracer)
	}
}

func TestRequestIDHonored(t *testing.T) {
	base, fresh := sharedWorld(t)
	tr := obs.NewTracer(obs.Config{SlowThreshold: -1})
	e := NewEngine(base.Clone(), Options{Tracer: tr})
	srv := httptest.NewServer(e.Handler())
	t.Cleanup(srv.Close)

	q := queries(fresh, 1)[0]
	req, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/route?src=%d&dst=%d", srv.URL, q.Src, q.Dst), nil)
	req.Header.Set("X-Request-ID", "caller-supplied-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-supplied-7" {
		t.Fatalf("echoed ID = %q", got)
	}
	if reply := getTraces(t, srv.URL+"/debug/trace"); reply.Traces[0].ID != "caller-supplied-7" {
		t.Fatalf("trace recorded ID %q", reply.Traces[0].ID)
	}
}

func TestFleetTracingSingleRoot(t *testing.T) {
	base, fresh := sharedWorld(t)
	tr := obs.NewTracer(obs.Config{SlowThreshold: -1})
	f := NewFleet(Options{Tracer: tr})
	if _, err := f.Add("acity", base.Clone()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	t.Cleanup(srv.Close)

	q := queries(fresh, 1)[0]
	resp, err := http.Get(fmt.Sprintf("%s/t/acity/route?src=%d&dst=%d", srv.URL, q.Src, q.Dst))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	reply := getTraces(t, srv.URL+"/debug/trace")
	if len(reply.Traces) != 1 {
		t.Fatalf("fleet + engine middleware minted %d traces, want 1", len(reply.Traces))
	}
	trace := reply.Traces[0]
	// The fleet's root wins and carries the tenant-prefixed path; the
	// engine's nested middleware must not have opened a second root.
	if trace.Name != "GET /t/acity/route" {
		t.Fatalf("root name = %q", trace.Name)
	}
	roots := 0
	for _, s := range trace.Spans {
		if s.Parent == -1 {
			roots++
		}
	}
	if roots != 1 {
		t.Fatalf("%d roots in one trace", roots)
	}
	// Engine-internal stages still attach under the fleet root.
	names := map[string]bool{}
	for _, s := range trace.Spans {
		names[s.Name] = true
	}
	if !names["route.compute"] || !names["cache.lookup"] {
		t.Fatalf("engine stages missing under fleet root: %v", names)
	}
}

// TestFleetTenantNamedDebugIsTraced: whether a request is telemetry is
// decided by its path below the tenant prefix, so a tenant named
// "debug" has its route requests traced under the fleet's one root,
// named with the full path, while its own /metrics and /debug/
// endpoints stay untraced.
func TestFleetTenantNamedDebugIsTraced(t *testing.T) {
	base, fresh := sharedWorld(t)
	tr := obs.NewTracer(obs.Config{SlowThreshold: -1})
	f := NewFleet(Options{Tracer: tr})
	if _, err := f.Add("debug", base.Clone()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	t.Cleanup(srv.Close)

	q := queries(fresh, 1)[0]
	for _, p := range []string{
		fmt.Sprintf("/t/debug/route?src=%d&dst=%d", q.Src, q.Dst),
		"/t/debug/metrics",
		"/t/debug/debug/snapshot",
	} {
		getBody(t, srv.URL+p, http.StatusOK)
	}

	reply := getTraces(t, srv.URL+"/debug/trace")
	if len(reply.Traces) != 1 {
		names := make([]string, len(reply.Traces))
		for i, trc := range reply.Traces {
			names[i] = trc.Name
		}
		t.Fatalf("traces %q, want the route request's alone", names)
	}
	trace := reply.Traces[0]
	if trace.Name != "GET /t/debug/route" {
		t.Fatalf("root name = %q, want %q", trace.Name, "GET /t/debug/route")
	}
	names := map[string]bool{}
	for _, s := range trace.Spans {
		names[s.Name] = true
	}
	if !names["route.compute"] || !names["cache.lookup"] {
		t.Fatalf("engine stages missing under the fleet root: %v", names)
	}
}

func TestDebugSnapshotEndpoint(t *testing.T) {
	base, fresh := sharedWorld(t)
	tr := obs.NewTracer(obs.Config{SlowThreshold: -1})
	e := NewEngine(base.Clone(), Options{Tracer: tr, PathBackend: core.BackendCH})
	srv := httptest.NewServer(e.Handler())
	t.Cleanup(srv.Close)

	q := queries(fresh, 1)[0]
	if _, err := http.Get(fmt.Sprintf("%s/route?src=%d&dst=%d", srv.URL, q.Src, q.Dst)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/debug/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ds DebugSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&ds); err != nil {
		t.Fatal(err)
	}
	if !ds.Tracing || ds.Generation != 1 || ds.Goroutines <= 0 {
		t.Fatalf("snapshot = %+v", ds)
	}
	if ds.CacheEntries != 1 {
		t.Fatalf("cache entries = %d after one distinct query", ds.CacheEntries)
	}
	if ds.CHEliminationTreeHeight < 2 || ds.CHClimbArcsMean <= 0 {
		t.Fatalf("CH backend reports elimination tree height %d, %g up-arcs per climb", ds.CHEliminationTreeHeight, ds.CHClimbArcsMean)
	}
}

func TestAccessLogLine(t *testing.T) {
	base, fresh := sharedWorld(t)
	tr := obs.NewTracer(obs.Config{SlowThreshold: -1})
	e := NewEngine(base.Clone(), Options{Tracer: tr})
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	srv := httptest.NewServer(AccessLog(logger, e.Handler()))
	t.Cleanup(srv.Close)

	q := queries(fresh, 1)[0]
	if _, err := http.Get(fmt.Sprintf("%s/route?src=%d&dst=%d", srv.URL, q.Src, q.Dst)); err != nil {
		t.Fatal(err)
	}
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("access log is not one JSON line: %v\n%s", err, buf.String())
	}
	if line["method"] != "GET" || line["path"] != "/route" {
		t.Fatalf("line = %v", line)
	}
	if line["status"] != float64(http.StatusOK) {
		t.Fatalf("status = %v", line["status"])
	}
	if line["bytes"] == nil || line["bytes"].(float64) <= 0 {
		t.Fatalf("bytes = %v", line["bytes"])
	}
	if id, _ := line["request_id"].(string); id == "" {
		t.Fatalf("request_id missing: %v", line)
	}
	if _, ok := line["duration_ms"]; !ok {
		t.Fatalf("duration_ms missing: %v", line)
	}
}

func TestTracingDisabledNoTraces(t *testing.T) {
	base, fresh := sharedWorld(t)
	tr := obs.NewTracer(obs.Config{SlowThreshold: -1})
	tr.SetEnabled(false)
	e := NewEngine(base.Clone(), Options{Tracer: tr})
	srv := httptest.NewServer(e.Handler())
	t.Cleanup(srv.Close)

	q := queries(fresh, 1)[0]
	resp, err := http.Get(fmt.Sprintf("%s/route?src=%d&dst=%d", srv.URL, q.Src, q.Dst))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("route = %d with tracing disabled", resp.StatusCode)
	}
	// Request IDs are still assigned — only tracing is off.
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("disabled tracing dropped request IDs")
	}
	reply := getTraces(t, srv.URL+"/debug/trace")
	if len(reply.Traces) != 0 || reply.Tracer.Enabled {
		t.Fatalf("disabled tracer recorded traces: %+v", reply)
	}
}
