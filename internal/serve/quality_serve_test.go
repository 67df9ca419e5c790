package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestEngineOffersIngestToQualitySource proves the engine's plumbing
// for a quality-shaped attachment (offer on ingest, stats/metrics
// surfaces) with a fake, since internal/quality imports serve.
func TestEngineOffersIngestToQualitySource(t *testing.T) {
	base, fresh := sharedWorld(t)
	e := NewEngine(base.Clone(), Options{})
	fq := &fakeAttachment{path: "/debug/quality"}
	fq.report = func(st *Stats) {
		n := fq.offers()
		st.Quality = &QualityStats{
			SampleRate: 0.5,
			Scored:     uint64(n),
			Total:      QualityScoreCell{Scores: uint64(n), Eq1Pct: 90},
		}
	}
	e.Attach(fq)

	e.Ingest(fresh[:12])
	if got := fq.offers(); got != 12 {
		t.Fatalf("quality source saw %d trajectories, want 12", got)
	}

	st := e.Stats()
	if st.Quality == nil || st.Quality.SampleRate != 0.5 {
		t.Fatalf("Stats().Quality = %+v, want the attached source's report", st.Quality)
	}

	var buf strings.Builder
	e.WriteMetrics(&buf)
	body := buf.String()
	for _, want := range []string{"l2r_quality_sample_rate", "l2r_quality_eq1_pct", "l2r_drift_tv", "l2r_build_info"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

func TestTraceMinMSFilter(t *testing.T) {
	base, fresh := sharedWorld(t)
	tr := obs.NewTracer(obs.Config{})
	e := NewEngine(base.Clone(), Options{Tracer: tr})
	srv := httptest.NewServer(e.Handler())
	t.Cleanup(srv.Close)

	for _, q := range queries(fresh, 3) {
		resp, err := http.Get(fmt.Sprintf("%s/route?src=%d&dst=%d", srv.URL, q.Src, q.Dst))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// min_ms=0 keeps everything; an impossibly high bar keeps nothing.
	if reply := getTraces(t, srv.URL+"/debug/trace?min_ms=0"); len(reply.Traces) != 3 {
		t.Fatalf("min_ms=0: %d traces want 3", len(reply.Traces))
	}
	if reply := getTraces(t, srv.URL+"/debug/trace?min_ms=3600000"); len(reply.Traces) != 0 {
		t.Fatalf("min_ms=3600000: %d traces want 0", len(reply.Traces))
	}

	// The filter scans the whole ring even when n is small: a tight n
	// with a permissive threshold still fills up to n.
	if reply := getTraces(t, srv.URL+"/debug/trace?n=2&min_ms=0"); len(reply.Traces) != 2 {
		t.Fatalf("n=2&min_ms=0: %d traces want 2", len(reply.Traces))
	}

	resp, err := http.Get(srv.URL + "/debug/trace?min_ms=banana")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("min_ms=banana: status %d want 400", resp.StatusCode)
	}
}

// Fleet latency must be merged from the per-tenant histograms — true
// fleet-wide quantiles, not an average of averages.
func TestFleetMergedLatency(t *testing.T) {
	f, srv := newFleetTestServer(t)
	_, fresh := sharedWorld(t)

	const perTenant = 5
	for _, tenant := range []string{"acity", "bcity"} {
		for _, q := range queries(fresh, perTenant) {
			url := fmt.Sprintf("%s/t/%s/route?src=%d&dst=%d", srv.URL, tenant, q.Src, q.Dst)
			getJSON(t, url, http.StatusOK, nil)
		}
	}

	fs := f.Stats()
	if fs.Latency.Queries != 2*perTenant {
		t.Fatalf("merged latency count = %d want %d", fs.Latency.Queries, 2*perTenant)
	}
	if fs.Latency.P99 < fs.Latency.P50 || fs.Latency.Mean <= 0 {
		t.Fatalf("merged quantiles implausible: %+v", fs.Latency)
	}
	// The merged histogram surfaces on the fleet's Prometheus page too.
	var buf strings.Builder
	f.WriteMetrics(&buf)
	if !strings.Contains(buf.String(), "l2r_fleet_route_latency_seconds") {
		t.Fatal("fleet /metrics missing l2r_fleet_route_latency_seconds")
	}
}

func TestBuildInfoSurfaces(t *testing.T) {
	base, _ := sharedWorld(t)
	e := NewEngine(base.Clone(), Options{})
	ds := e.DebugSnapshotNow()
	if ds.GoVersion == "" {
		t.Fatal("DebugSnapshotNow missing GoVersion")
	}
}

// fakeObserver is a quality-shaped attachment that also answers
// QualityStats, as internal/quality's Observer does; its Report fills
// Stats.Quality with the same block.
type fakeObserver struct {
	*fakeAttachment
	stats QualityStats
}

func (o fakeObserver) QualityStats() QualityStats { return o.stats }

// TestFleetQualityAsksOnlyTheObserver: the fleet's /debug/quality lists
// each tenant's observer report, omits a tenant without one, and runs
// no other attachment's Report to get there.
func TestFleetQualityAsksOnlyTheObserver(t *testing.T) {
	f, srv := newFleetTestServer(t)
	reports := 0
	a, _ := f.Get("acity")
	b, _ := f.Get("bcity")
	a.Attach(&fakeAttachment{path: "/stream", report: func(*Stats) { reports++ }})
	qs := QualityStats{SampleRate: 0.25, Scored: 7}
	a.Attach(fakeObserver{&fakeAttachment{path: "/debug/quality", report: func(st *Stats) { st.Quality = &qs }}, qs})
	b.Attach(&fakeAttachment{path: "/stream", report: func(*Stats) { reports++ }})

	resp, err := http.Get(srv.URL + "/debug/quality")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Tenants   int                     `json:"tenants"`
		PerTenant map[string]QualityStats `json:"per_tenant"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, decode %v", resp.StatusCode, err)
	}
	if q, ok := got.PerTenant["acity"]; got.Tenants != 1 || len(got.PerTenant) != 1 || !ok || q.SampleRate != 0.25 || q.Scored != 7 {
		t.Fatalf("/debug/quality = %+v, want acity's observer report alone", got)
	}
	if reports != 0 {
		t.Fatalf("/debug/quality ran %d Report calls of attachments that are not the observer", reports)
	}
}
