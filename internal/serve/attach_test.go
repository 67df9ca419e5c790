package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/traj"
)

// fakeAttachment records what the engine tells it. log, when set, is
// shared between attachments and receives "<name>:offer" /
// "<name>:published" / "<name>:close" in call order — the engine calls
// the first two under writeMu and Close from the one goroutine closing
// it, so appends never race.
type fakeAttachment struct {
	name, path string
	report     func(*Stats)
	queue      func(*DebugSnapshot) // ReportQueue, when set
	log        *[]string

	mu        sync.Mutex
	offered   int
	published int
	closed    int
}

func (f *fakeAttachment) Endpoint() (string, http.Handler) {
	return f.path, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, f.name)
	})
}

func (f *fakeAttachment) OfferTrajectories(ts []*traj.Trajectory) {
	f.mu.Lock()
	f.offered += len(ts)
	f.mu.Unlock()
	if f.log != nil {
		*f.log = append(*f.log, f.name+":offer")
	}
}

func (f *fakeAttachment) Published(*core.Router) {
	f.mu.Lock()
	f.published++
	f.mu.Unlock()
	if f.log != nil {
		*f.log = append(*f.log, f.name+":published")
	}
}

func (f *fakeAttachment) Report(st *Stats) {
	if f.report != nil {
		f.report(st)
	}
}

func (f *fakeAttachment) ReportQueue(ds *DebugSnapshot) {
	if f.queue != nil {
		f.queue(ds)
	}
}

func (f *fakeAttachment) Close() {
	f.mu.Lock()
	f.closed++
	f.mu.Unlock()
	if f.log != nil {
		*f.log = append(*f.log, f.name+":close")
	}
}

func (f *fakeAttachment) counts() (offered, published int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.offered, f.published
}

func getBody(t *testing.T, url string, wantStatus int) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, wantStatus)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return string(body)
}

// TestAttachAfterHandlerAndReplace walks one endpoint through its
// life in the order a fleet produces it: the handler is built first,
// the endpoint is 404 until something attaches, the attachment is then
// reachable over HTTP, and re-attaching on the same endpoint replaces
// it — the replaced attachment is offered nothing further and the
// endpoint serves the new handler.
func TestAttachAfterHandlerAndReplace(t *testing.T) {
	base, fresh := sharedWorld(t)
	e := NewEngine(base.Clone(), Options{})
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	for _, p := range []string{"/stream", "/debug/quality", "/debug/maint", "/no/such"} {
		getBody(t, srv.URL+p, http.StatusNotFound)
	}

	first := &fakeAttachment{name: "first", path: "/debug/quality"}
	e.Attach(first)
	if got := getBody(t, srv.URL+"/debug/quality", http.StatusOK); got != "first" {
		t.Fatalf("/debug/quality served %q, want the attachment made after Handler()", got)
	}
	getBody(t, srv.URL+"/debug/maint", http.StatusNotFound)
	e.Ingest(fresh[:3])

	second := &fakeAttachment{name: "second", path: "/debug/quality"}
	e.Attach(second)
	if n := len(*e.attachments.Load()); n != 1 {
		t.Fatalf("%d attachments after re-attaching on one endpoint, want 1", n)
	}
	if got := getBody(t, srv.URL+"/debug/quality", http.StatusOK); got != "second" {
		t.Fatalf("/debug/quality served %q after re-attach, want the new handler", got)
	}
	e.Ingest(fresh[3:8])
	e.Publish(base.IngestClone())
	if off, pub := first.counts(); off != 3 || pub != 0 {
		t.Fatalf("replaced attachment saw %d trajectories, %d publishes; want 3, 0", off, pub)
	}
	if off, pub := second.counts(); off != 5 || pub != 1 {
		t.Fatalf("new attachment saw %d trajectories, %d publishes; want 5, 1", off, pub)
	}
}

// TestAttachOrderAndPublished: every attachment is offered every batch
// in registration order, and Published reaches all of them from both
// Publish and RebuildSnapshot.
func TestAttachOrderAndPublished(t *testing.T) {
	base, fresh := sharedWorld(t)
	e := NewEngine(base.Clone(), Options{})
	var log []string
	a := &fakeAttachment{name: "a", path: "/debug/quality", log: &log}
	b := &fakeAttachment{name: "b", path: "/debug/maint", log: &log}
	e.Attach(a)
	e.Attach(b)

	e.Ingest(fresh[:2])
	e.IngestMatched(matchedBatches(fresh[2:4], 2)[0])
	e.Publish(base.IngestClone())
	if _, err := e.RebuildSnapshot(context.Background(), func(*core.Router) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RebuildSnapshot(context.Background(), func(*core.Router) error { return fmt.Errorf("nope") }); err == nil {
		t.Fatal("failed rebuild reported no error")
	}

	want := "a:offer b:offer a:offer b:offer a:published b:published a:published b:published"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("notifications:\n got %s\nwant %s", got, want)
	}
}

func jsonKeys(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

// TestAttachWireKeys pins the top-level JSON keys of /stats and
// /debug/snapshot with zero, one and three attachments to the sets
// recorded when each attachment had its own typed slot on the engine:
// the seam moved the plumbing, not the wire format. The two ch_* keys
// were recorded on an engine embedded on plain Dijkstra, which omitted
// them; every engine serves on a contraction hierarchy now, as the
// daemon's always did, and reports them.
func TestAttachWireKeys(t *testing.T) {
	const (
		stats0 = "cache_entries cache_hit_rate cache_hits cache_misses coalesced_queries customize_ns ingest_lag_ns ingested_trajectories ingested_vertices ingests last_staleness_ratio latency learn_searches out_of_region_vertices per_category qps queries route_computations since_last_swap_ns snapshot_generation staleness_ratio swap_ns uptime_ns"
		debug0 = "cache_entries ch_climb_arcs_mean ch_elimination_tree_height coalescing durable generation go_version goroutines tracing"
	)
	withKeys := func(base string, extra ...string) string {
		keys := append(strings.Fields(base), extra...)
		sort.Strings(keys)
		return strings.Join(keys, " ")
	}
	check := func(e *Engine, n int, wantStats, wantDebug string) {
		t.Helper()
		if got := jsonKeys(t, e.Stats()); got != wantStats {
			t.Errorf("%d attachments: /stats keys\n got %s\nwant %s", n, got, wantStats)
		}
		if got := jsonKeys(t, e.DebugSnapshotNow()); got != wantDebug {
			t.Errorf("%d attachments: /debug/snapshot keys\n got %s\nwant %s", n, got, wantDebug)
		}
	}

	base, _ := sharedWorld(t)
	e := NewEngine(base.Clone(), Options{})
	check(e, 0, stats0, debug0)

	e.Attach(&fakeAttachment{path: "/debug/quality", report: func(st *Stats) {
		st.Quality = &QualityStats{QueueDepth: 1, QueueCapacity: 2}
	}, queue: func(ds *DebugSnapshot) { ds.QualityQueueDepth, ds.QualityQueueCapacity = 1, 2 }})
	check(e, 1, withKeys(stats0, "quality"), withKeys(debug0, "quality_queue_capacity", "quality_queue_depth"))

	e.Attach(&fakeAttachment{path: "/stream", report: func(st *Stats) {
		st.Stream = &StreamStats{QueueDepth: 1, QueueCapacity: 2}
	}, queue: func(ds *DebugSnapshot) { ds.StreamQueueDepth, ds.StreamQueueCapacity = 1, 2 }})
	e.Attach(&fakeAttachment{path: "/debug/maint", report: func(st *Stats) {
		st.Maintenance = &MaintStats{}
	}})
	check(e, 3, withKeys(stats0, "quality", "stream", "maintenance"),
		withKeys(debug0, "quality_queue_capacity", "quality_queue_depth", "stream_queue_capacity", "stream_queue_depth"))
}

// TestAttachConcurrent is for the race detector: attachments come and
// go while the write path offers and publishes to the list and /stats
// reads it.
func TestAttachConcurrent(t *testing.T) {
	base, fresh := sharedWorld(t)
	e := NewEngine(base.Clone(), Options{})
	batches := matchedBatches(fresh[:24], 2)

	var wg sync.WaitGroup
	run := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < len(batches); i++ {
				fn(i)
			}
		}()
	}
	paths := []string{"/stream", "/debug/quality", "/debug/maint"}
	for w := 0; w < 2; w++ {
		run(func(i int) {
			e.Attach(&fakeAttachment{path: paths[i%len(paths)], report: func(st *Stats) {
				st.Quality = &QualityStats{}
			}})
		})
	}
	run(func(i int) { e.IngestMatched(batches[i]) })
	run(func(i int) { e.Stats(); e.DebugSnapshotNow() })
	run(func(i int) {
		if i%4 == 0 {
			e.Publish(base.IngestClone())
		}
	})
	wg.Wait()

	if n := len(*e.attachments.Load()); n != len(paths) {
		t.Fatalf("%d attachments after concurrent re-attach on %d endpoints", n, len(paths))
	}
}
