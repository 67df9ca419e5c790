package serve_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/quality"
	"repro/internal/roadnet"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/traj"
)

// countingReports is an attachment that counts its Report calls.
type countingReports struct{ reports atomic.Int64 }

func (c *countingReports) Endpoint() (string, http.Handler) {
	return "/counting", http.NotFoundHandler()
}
func (c *countingReports) OfferTrajectories([]*traj.Trajectory) {}
func (c *countingReports) Report(*serve.Stats)                  { c.reports.Add(1) }
func (c *countingReports) Close()                               {}

// TestDebugSnapshotRunsNoReport: /debug/snapshot reads the stream and
// quality queues' depth and capacity from the two attachments directly.
// With both attached and closed trips waiting in the stream queue, the
// reply — DebugSnapshotNow and GET /debug/snapshot alike — carries,
// field for field, the four numbers the attachments' Stats blocks
// report, and no attachment's Report runs for it.
func TestDebugSnapshotRunsNoReport(t *testing.T) {
	road := roadnet.Generate(roadnet.Tiny(5))
	ts := traj.NewSimulator(road, traj.D2Like(5, 300)).Run()
	cut := len(ts) * 6 / 10
	r, err := core.Build(road, ts[:cut], core.Options{SkipMapMatching: true})
	if err != nil {
		t.Fatal(err)
	}
	e := serve.NewEngine(r, serve.Options{})
	defer e.Close()
	ing := stream.Attach(e, stream.Config{FlushAge: time.Hour})
	quality.Attach(e, quality.Config{})
	counting := &countingReports{}
	e.Attach(counting)
	ing.PushAll(stream.PointsFrom(ts[cut : cut+3]))
	ing.CloseAll()

	ds := e.DebugSnapshotNow()
	rec := httptest.NewRecorder()
	e.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/snapshot", nil))
	var served serve.DebugSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &served); err != nil {
		t.Fatal(err)
	}
	if n := counting.reports.Load(); n != 0 {
		t.Fatalf("/debug/snapshot ran an attachment's Report %d times", n)
	}
	st := e.Stats()
	if counting.reports.Load() == 0 || st.Stream == nil || st.Quality == nil {
		t.Fatal("Stats ran no Report, or lacks the stream or quality block")
	}
	want := ds
	want.StreamQueueDepth, want.StreamQueueCapacity = st.Stream.QueueDepth, st.Stream.QueueCapacity
	want.QualityQueueDepth, want.QualityQueueCapacity = st.Quality.QueueDepth, st.Quality.QueueCapacity
	if ds != want || want.StreamQueueDepth == 0 || want.QualityQueueCapacity == 0 {
		t.Fatalf("DebugSnapshotNow %+v, want the Stats blocks' queues %+v (a queued stream, a sized quality queue)", ds, want)
	}
	served.Goroutines = ds.Goroutines
	if served != want {
		t.Fatalf("GET /debug/snapshot %+v, want %+v", served, want)
	}
}
