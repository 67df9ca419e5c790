package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// promSample matches one Prometheus text-format sample line.
var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*")*\})? [^ \n]+$`)

// parseExposition validates every line of a /metrics body, and that
// each family's samples form one group after its HELP and TYPE lines,
// as the text format requires. It returns sample values keyed by the
// full series string (name + label set).
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]bool)
	family, histogram := "", false
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			if typed[name] {
				t.Fatalf("/metrics line %d: family %s starts a second group", ln+1, name)
			}
			typed[name] = true
			family, histogram = name, typ == "histogram"
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if !promSample.MatchString(line) {
			t.Fatalf("/metrics line %d is not valid exposition: %q", ln+1, line)
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if suffix, ok := strings.CutPrefix(name, family); !ok || suffix != "" &&
			!(histogram && (suffix == "_bucket" || suffix == "_sum" || suffix == "_count")) {
			t.Fatalf("/metrics line %d: %s sample outside its family's group (under %s)", ln+1, name, family)
		}
		sp := strings.LastIndex(line, " ")
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("/metrics line %d value: %v", ln+1, err)
		}
		samples[line[:sp]] = v
	}
	return samples
}

func scrape(t *testing.T, url string) (string, map[string]float64) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("Cache-Control = %q", cc)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(b)
	return body, parseExposition(t, body)
}

func TestEngineMetricsExposition(t *testing.T) {
	base, fresh := sharedWorld(t)
	tr := obs.NewTracer(obs.Config{SlowThreshold: -1})
	e := NewEngine(base.Clone(), Options{Tracer: tr})
	srv := httptest.NewServer(e.Handler())
	t.Cleanup(srv.Close)

	q := queries(fresh, 1)[0]
	for i := 0; i < 3; i++ { // 1 miss + 2 hits
		if _, err := http.Get(fmt.Sprintf("%s/route?src=%d&dst=%d", srv.URL, q.Src, q.Dst)); err != nil {
			t.Fatal(err)
		}
	}

	_, samples := scrape(t, srv.URL+"/metrics")
	want := map[string]float64{
		"l2r_queries_total":       3,
		"l2r_cache_hits_total":    2,
		"l2r_cache_misses_total":  1,
		"l2r_snapshot_generation": 1,
	}
	for name, v := range want {
		if got, ok := samples[name]; !ok || got != v {
			t.Fatalf("%s = %v (present %v), want %v", name, got, ok, v)
		}
	}
	// What a query costs on the served contraction order (CH backend).
	if h, a := samples["l2r_ch_elimination_tree_height"], samples["l2r_ch_climb_arcs_mean"]; h < 2 || a <= 0 {
		t.Fatalf("l2r_ch_elimination_tree_height = %v, l2r_ch_climb_arcs_mean = %v; want a tree with arcs to climb", h, a)
	}
	// The latency histogram must expose a complete series.
	if samples["l2r_route_latency_seconds_count"] != 3 {
		t.Fatalf("latency _count = %v", samples["l2r_route_latency_seconds_count"])
	}
	if samples["l2r_route_latency_seconds_sum"] <= 0 {
		t.Fatal("latency _sum not positive")
	}
	if samples[`l2r_route_latency_seconds_bucket{le="+Inf"}`] != 3 {
		t.Fatal("latency +Inf bucket missing or wrong")
	}
	// Per-stage histograms from the tracer (the route was traced).
	foundStage := false
	for series := range samples {
		if strings.HasPrefix(series, `l2r_stage_duration_seconds_count{stage="`) {
			foundStage = true
			break
		}
	}
	if !foundStage {
		t.Fatal("no per-stage histograms in exposition")
	}
	// Runtime gauges.
	if samples["go_goroutines"] <= 0 {
		t.Fatal("go_goroutines missing")
	}
}

func TestEngineMetricsWithoutTracer(t *testing.T) {
	base, fresh := sharedWorld(t)
	e := NewEngine(base.Clone(), Options{})
	srv := httptest.NewServer(e.Handler())
	t.Cleanup(srv.Close)
	q := queries(fresh, 1)[0]
	if _, err := http.Get(fmt.Sprintf("%s/route?src=%d&dst=%d", srv.URL, q.Src, q.Dst)); err != nil {
		t.Fatal(err)
	}
	_, samples := scrape(t, srv.URL+"/metrics")
	if samples["l2r_queries_total"] != 1 {
		t.Fatalf("queries = %v", samples["l2r_queries_total"])
	}
	for series := range samples {
		if strings.HasPrefix(series, "l2r_stage_duration_seconds") {
			t.Fatalf("stage histogram %q emitted without a tracer", series)
		}
	}
}

func TestFleetMetricsPerTenantLabels(t *testing.T) {
	base, fresh := sharedWorld(t)
	tr := obs.NewTracer(obs.Config{SlowThreshold: -1})
	f := NewFleet(Options{Tracer: tr})
	for _, name := range []string{"acity", "bcity"} {
		if _, err := f.Add(name, base.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(f.Handler())
	t.Cleanup(srv.Close)

	q := queries(fresh, 1)[0]
	for i := 0; i < 2; i++ {
		if _, err := http.Get(fmt.Sprintf("%s/t/acity/route?src=%d&dst=%d", srv.URL, q.Src, q.Dst)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := http.Get(fmt.Sprintf("%s/t/bcity/route?src=%d&dst=%d", srv.URL, q.Src, q.Dst)); err != nil {
		t.Fatal(err)
	}

	body, samples := scrape(t, srv.URL+"/metrics")
	if samples["l2r_tenants"] != 2 {
		t.Fatalf("l2r_tenants = %v", samples["l2r_tenants"])
	}
	if samples[`l2r_queries_total{tenant="acity"}`] != 2 {
		t.Fatalf("acity queries = %v\n%s", samples[`l2r_queries_total{tenant="acity"}`], body)
	}
	if samples[`l2r_queries_total{tenant="bcity"}`] != 1 {
		t.Fatalf("bcity queries = %v", samples[`l2r_queries_total{tenant="bcity"}`])
	}
	// Histograms carry the tenant label too.
	if samples[`l2r_route_latency_seconds_count{tenant="acity"}`] != 2 {
		t.Fatal("tenant-labeled latency histogram missing")
	}
	// Shared stage histograms are emitted once, unlabeled by tenant.
	for series := range samples {
		if strings.HasPrefix(series, "l2r_stage_duration_seconds") && strings.Contains(series, "tenant=") {
			t.Fatalf("stage histogram %q carries a tenant label", series)
		}
	}
	// Engine-nested scrape works per tenant as well.
	_, tenantSamples := scrape(t, srv.URL+"/t/acity/metrics")
	if tenantSamples["l2r_queries_total"] != 2 {
		t.Fatalf("nested tenant scrape queries = %v", tenantSamples["l2r_queries_total"])
	}
}

// TestMetricsFamiliesGrouped: families written once per key — the
// quality cells by category and distance bucket, a fleet's catalog by
// tenant — still come out one group per family.
func TestMetricsFamiliesGrouped(t *testing.T) {
	base, _ := sharedWorld(t)
	f := NewFleet(Options{})
	cell := QualityScoreCell{Scores: 1, Eq1Pct: 90, WindowEq1Pct: 80}
	for _, name := range []string{"acity", "bcity"} {
		e, err := f.Add(name, base.Clone())
		if err != nil {
			t.Fatal(err)
		}
		e.Attach(&fakeAttachment{path: "/debug/quality", report: func(st *Stats) {
			st.Quality = &QualityStats{
				Total:       cell,
				PerCategory: map[string]QualityScoreCell{"InRegion": cell, "OutRegion": cell},
				PerDistance: map[string]QualityScoreCell{"(0,2]km": cell, "(2,5]km": cell},
			}
		}})
	}
	var fleet, one strings.Builder
	if err := f.WriteMetrics(&fleet); err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, fleet.String())
	if samples[`l2r_quality_category_window_eq1_pct{tenant="bcity",category="OutRegion"}`] != 80 {
		t.Fatalf("fleet exposition lacks bcity's OutRegion window cell:\n%s", fleet.String())
	}
	e, _ := f.Get("acity")
	if err := e.WriteMetrics(&one); err != nil {
		t.Fatal(err)
	}
	if samples = parseExposition(t, one.String()); samples[`l2r_quality_distance_eq1_pct{bucket="(2,5]km"}`] != 90 {
		t.Fatalf("engine exposition lacks the (2,5]km cell:\n%s", one.String())
	}
}

func TestMetricsConcurrentScrapeUnderTraffic(t *testing.T) {
	base, fresh := sharedWorld(t)
	tr := obs.NewTracer(obs.Config{SlowThreshold: -1})
	e := NewEngine(base.Clone(), Options{Tracer: tr})
	srv := httptest.NewServer(e.Handler())
	t.Cleanup(srv.Close)

	qs := queries(fresh, 16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				q := qs[(g*25+i)%len(qs)]
				resp, err := http.Get(fmt.Sprintf("%s/route?src=%d&dst=%d", srv.URL, q.Src, q.Dst))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Get(srv.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("scrape status %d", resp.StatusCode)
					return
				}
				if !strings.Contains(string(b), "l2r_queries_total") {
					t.Error("scrape body missing counters")
					return
				}
			}
		}()
	}
	wg.Wait()
	// A final scrape must parse cleanly and account for all queries.
	_, samples := scrape(t, srv.URL+"/metrics")
	if samples["l2r_queries_total"] != 100 {
		t.Fatalf("queries after traffic = %v, want 100", samples["l2r_queries_total"])
	}
}

func TestStatsAndHealthzHeaders(t *testing.T) {
	base, _ := sharedWorld(t)
	e := NewEngine(base.Clone(), Options{})
	srv := httptest.NewServer(e.Handler())
	t.Cleanup(srv.Close)
	for _, path := range []string{"/stats", "/healthz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
			t.Fatalf("%s Content-Type = %q", path, ct)
		}
		if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
			t.Fatalf("%s Cache-Control = %q", path, cc)
		}
	}
}
