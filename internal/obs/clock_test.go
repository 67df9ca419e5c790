package obs_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/roadnet"
	"repro/internal/serve"
	"repro/internal/traj"
)

// TestDisabledRouteReadsNoClock is the deterministic witness beside the
// wall-time budgets TestTraceOverheadBudget and
// TestQualityOverheadBudget: with the tracer off and the quality
// observer attached with sampling off, 200 routes — 100 through
// Engine.Route and 100 through GET /route — and an ingest batch read
// the tracer's and the shadow scorer's clock (obs.Now) zero times. One
// read per disabled request — which the 5 % trace budget passes four
// times in five — fails it every time, whether the request middleware
// or a nil span's End makes it. Two controls show the count is wired:
// an enabled tracer's route reads the clock, and so does the scorer
// once sampling is on.
func TestDisabledRouteReadsNoClock(t *testing.T) {
	var reads atomic.Int64
	defer obs.CountClockReads(&reads)()
	road := roadnet.Generate(roadnet.Tiny(5))
	ts := traj.NewSimulator(road, traj.D2Like(5, 300)).Run()
	cut := len(ts) * 6 / 10
	r, err := core.Build(road, ts[:cut], core.Options{SkipMapMatching: true})
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(obs.Config{})
	tracer.SetEnabled(false)
	e := serve.NewEngine(r, serve.Options{CacheSize: -1, Tracer: tracer})
	defer e.Close()
	qo := quality.Attach(e, quality.Config{})
	h := e.Handler()
	route := func(i int) {
		s, d := roadnet.VertexID(i*37%road.NumVertices()), roadnet.VertexID((i*101+13)%road.NumVertices())
		if i%2 == 0 {
			e.Route(s, d)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/route?src=%d&dst=%d", s, d), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /route %d -> %d: %d %s", s, d, rec.Code, rec.Body)
		}
	}

	reads.Store(0)
	for i := range 200 {
		route(i)
	}
	e.IngestMatched(ts[cut : cut+4])
	qo.Drain()
	if n := reads.Load(); n != 0 {
		t.Fatalf("200 routes and an ingest with tracing and sampling off read the clock %d times", n)
	}

	tracer.SetEnabled(true)
	route(1)
	if reads.Load() == 0 {
		t.Fatal("a traced route read no clock: the count is not wired to the tracer")
	}
	reads.Store(0)
	qo.Close()
	sampled := quality.Attach(e, quality.Config{SampleRate: 1})
	tracer.SetEnabled(false)
	e.IngestMatched(ts[cut+4 : cut+8])
	sampled.Drain()
	if reads.Load() == 0 {
		t.Fatal("shadow scoring read no clock: the count is not wired to the scorer")
	}
}
