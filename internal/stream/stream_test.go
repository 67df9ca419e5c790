package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mapmatch"
	"repro/internal/roadnet"
	"repro/internal/serve"
	"repro/internal/spatial"
	"repro/internal/traj"
)

// buildStreamWorld builds a router from the first 60% of a simulated
// trajectory stream and returns the road, the router and the
// remaining 40% as the live feed.
func buildStreamWorld(tb testing.TB, seed int64, trips int) (*roadnet.Graph, *core.Router, []*traj.Trajectory) {
	tb.Helper()
	road := roadnet.Generate(roadnet.Tiny(seed))
	ts := traj.NewSimulator(road, traj.D2Like(seed, trips)).Run()
	if len(ts) < 20 {
		tb.Fatalf("simulator made only %d trips", len(ts))
	}
	cut := len(ts) * 6 / 10
	r, err := core.Build(road, ts[:cut], core.Options{SkipMapMatching: true})
	if err != nil {
		tb.Fatalf("Build: %v", err)
	}
	return road, r, ts[cut:]
}

func samePath(a, b roadnet.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ndjson renders points as the POST /stream wire format.
func ndjson(pts []Point) *bytes.Buffer {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, p := range pts {
		_ = enc.Encode(p)
	}
	return &buf
}

// TestStreamEndToEndMatchesOffline is the acceptance test: a simulated
// point stream replayed through POST /t/{tenant}/stream must produce
// ingested trajectories whose matched paths equal the offline mapmatch
// output on the same trajectories, while concurrent route queries
// never observe a partial snapshot, and the batcher must amortize
// snapshot swaps at least 10x versus one swap per trajectory.
func TestStreamEndToEndMatchesOffline(t *testing.T) {
	road, router, live := buildStreamWorld(t, 41, 260)
	if len(live) > 100 {
		live = live[:100]
	}
	mcfg := mapmatch.Config{SigmaM: 15}

	// Ground truth: the offline whole-trajectory pass.
	offline := mapmatch.NewMatcher(road, spatial.NewIndex(road, 250), mcfg)
	want := make(map[string]roadnet.Path)
	for _, tr := range live {
		if m := offline.Match(tr.Points()); len(m) >= 2 {
			want["t"+strconv.Itoa(tr.ID)] = m
		}
	}
	if len(want) < len(live)/2 {
		t.Fatalf("only %d/%d trips offline-matchable; world too hostile", len(want), len(live))
	}

	var capMu sync.Mutex
	got := make(map[string]roadnet.Path)
	fleet := serve.NewFleet(serve.Options{})
	defer fleet.Close()
	var ing *Ingestor // the tenant's pipeline, set when the fleet attaches it
	fleet.Attach(func(_ string, e *serve.Engine) {
		ing = Attach(e, Config{
			Match:    mcfg,
			MaxBatch: 16,
			FlushAge: time.Hour, // count-driven flushes only; the final Flush drains the rest
			OnTrajectory: func(v string, tr *traj.Trajectory) {
				capMu.Lock()
				got[v] = tr.Matched
				capMu.Unlock()
			},
		})
	})
	eng, err := fleet.Add("city", router)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(fleet.Handler())
	defer srv.Close()

	// Concurrent readers: no query may ever see a partial snapshot.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tr := live[(i*7+w*13)%len(live)]
				res, _ := eng.Route(tr.Source(), tr.Destination())
				if len(res.Path) >= 2 && !res.Path.Valid(road) {
					t.Error("query observed an invalid path during streaming")
					return
				}
			}
		}(w)
	}

	// Replay the feed through the tenant's NDJSON endpoint in chunks.
	pts := PointsFrom(live)
	const chunk = 400
	for i := 0; i < len(pts); i += chunk {
		end := i + chunk
		if end > len(pts) {
			end = len(pts)
		}
		resp, err := http.Post(srv.URL+"/t/city/stream", "application/x-ndjson", ndjson(pts[i:end]))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("chunk %d: status %d", i/chunk, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if ing == nil {
		t.Fatal("tenant pipeline not attached")
	}
	// Close rather than CloseAll + Flush: a background flush may have
	// taken the last batch off the queue and still be applying it, which
	// Flush would not wait for; Close drains the queue and waits for the
	// flusher to finish.
	ing.Close()
	close(stop)
	wg.Wait()

	// Every streamed trajectory matches its offline decode exactly.
	capMu.Lock()
	defer capMu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("streamed %d trajectories, offline matched %d", len(got), len(want))
	}
	for v, w := range want {
		g, ok := got[v]
		if !ok {
			t.Fatalf("trip %s never emerged from the pipeline", v)
		}
		if !samePath(g, w) {
			t.Fatalf("trip %s: stream match %v != offline match %v", v, g, w)
		}
	}

	// Ingestion really happened, through few swaps.
	st := eng.Stats()
	if st.IngestedTrajectories != uint64(len(want)) {
		t.Fatalf("ingested %d trajectories, want %d", st.IngestedTrajectories, len(want))
	}
	if st.Ingests == 0 {
		t.Fatal("no ingest swap happened")
	}
	if st.IngestedTrajectories < 10*st.Ingests {
		t.Fatalf("amortization too low: %d trajectories over %d swaps (< 10x)",
			st.IngestedTrajectories, st.Ingests)
	}
	if st.SnapshotGeneration != 1+st.Ingests {
		t.Fatalf("generation %d after %d ingests", st.SnapshotGeneration, st.Ingests)
	}
	if st.Stream == nil || st.Stream.FlushedTrajectories != uint64(len(want)) {
		t.Fatalf("stream stats not surfaced through engine stats: %+v", st.Stream)
	}

	// And the same stats come out of the tenant's HTTP /stats.
	resp, err := http.Get(srv.URL + "/t/city/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire struct {
		Stream *serve.StreamStats `json:"stream"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if wire.Stream == nil || wire.Stream.FlushedTrajectories != uint64(len(want)) {
		t.Fatalf("HTTP stats stream block wrong: %+v", wire.Stream)
	}
}

// TestStreamSoak replays a simulated fleet — points keyed per driver,
// the messy realistic feed — through a live engine from several pusher
// goroutines while route queries and stats readers run concurrently.
// CI runs it under the race detector.
func TestStreamSoak(t *testing.T) {
	road, router, live := buildStreamWorld(t, 47, 300)
	e := serve.NewEngine(router, serve.Options{CacheSize: 256})
	ing := Attach(e, Config{
		Match:    mapmatch.Config{SigmaM: 15},
		MaxBatch: 8,
		FlushAge: 20 * time.Millisecond,
	})
	defer ing.Close()

	// Trips share their driver's vehicle ("d<driver>"), so the
	// sessionizer has to rediscover the boundaries from gaps: the
	// realistic, messier replay.
	var feed []Point
	for _, tr := range live {
		for _, r := range tr.Records {
			feed = append(feed, Point{Vehicle: "d" + strconv.Itoa(tr.Driver), T: r.T, X: r.P.X, Y: r.P.Y})
		}
	}
	sort.SliceStable(feed, func(i, j int) bool { return feed[i].T < feed[j].T })
	// Partition the time-ordered feed by vehicle so each vehicle's
	// points arrive from one goroutine, as the concurrency contract
	// requires.
	const pushers = 4
	parts := make([][]Point, pushers)
	for _, p := range feed {
		h := fnv.New32a()
		_, _ = h.Write([]byte(p.Vehicle))
		i := int(h.Sum32()) % pushers
		parts[i] = append(parts[i], p)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for w := 0; w < 3; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tr := live[(i*5+w*11)%len(live)]
				res, _ := e.Route(tr.Source(), tr.Destination())
				if len(res.Path) >= 2 && !res.Path.Valid(road) {
					t.Error("invalid path under streaming load")
					return
				}
				if i%50 == 0 {
					e.Stats()
				}
			}
		}(w)
	}

	var pushWg sync.WaitGroup
	for _, part := range parts {
		pushWg.Add(1)
		go func(part []Point) {
			defer pushWg.Done()
			ing.PushAll(part)
		}(part)
	}
	pushWg.Wait()
	ing.CloseAll()
	ing.Flush()
	close(stop)
	readers.Wait()

	st := e.Stats()
	if st.Stream == nil {
		t.Fatal("no stream stats")
	}
	if st.Stream.SegmentsClosed == 0 || st.IngestedTrajectories == 0 {
		t.Fatalf("soak ingested nothing: %+v", st.Stream)
	}
	if st.SnapshotGeneration < 2 {
		t.Fatalf("generation = %d; no swap happened", st.SnapshotGeneration)
	}
	if st.Queries == 0 {
		t.Fatal("no queries recorded")
	}
}

// TestStreamHTTPBodyLimit: the engine's 8 MiB body limit applies to the
// NDJSON endpoint and yields 413, not a hang or a 400.
func TestStreamHTTPBodyLimit(t *testing.T) {
	_, router, _ := buildStreamWorld(t, 43, 120)
	e := serve.NewEngine(router, serve.Options{})
	ing := Attach(e, Config{})
	defer ing.Close()
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	var big []Point
	for i := 0; i < 200; i++ {
		big = append(big, Point{Vehicle: "v1", T: float64(i), X: float64(i), Y: 0})
	}
	// A last record whose vehicle name alone fills the limit takes the
	// body just over it.
	const limit = 8 << 20
	big = append(big, Point{Vehicle: strings.Repeat("v", limit), T: 200})
	body := ndjson(big)
	if body.Len() <= limit {
		t.Fatalf("body of %d bytes is not over the %d limit", body.Len(), limit)
	}
	resp, err := http.Post(srv.URL+"/stream", "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d want 413", resp.StatusCode)
	}
}

// TestStreamHTTPControlRecords: close records and the ?flush side
// effect work over the wire.
func TestStreamHTTPControlRecords(t *testing.T) {
	road, router, _ := buildStreamWorld(t, 43, 120)
	e := serve.NewEngine(router, serve.Options{})
	var emitted int
	var mu sync.Mutex
	ing := Attach(e, Config{
		MaxBatch: 1 << 20, FlushAge: time.Hour, // only ?flush=1 flushes
		OnTrajectory: func(string, *traj.Trajectory) { mu.Lock(); emitted++; mu.Unlock() },
	})
	defer ing.Close()
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	// A short on-road walk for one vehicle, ended by a control record.
	eng := spatial.NewIndex(road, 250)
	_ = eng
	v0 := road.Point(0)
	var lines []string
	for i := 0; i < 12; i++ {
		lines = append(lines, fmt.Sprintf(`{"vehicle":"v1","t":%d,"x":%f,"y":%f}`, i*5, v0.X+float64(i)*40, v0.Y))
	}
	lines = append(lines, `{"vehicle":"v1","close":true}`)
	resp, err := http.Post(srv.URL+"/stream?flush=1", "application/x-ndjson",
		strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reply struct {
		Points  int `json:"points"`
		Control int `json:"control"`
		Flushed int `json:"flushed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.Points != 12 || reply.Control != 1 {
		t.Fatalf("reply counts wrong: %+v", reply)
	}
	mu.Lock()
	em := emitted
	mu.Unlock()
	if em != reply.Flushed {
		t.Fatalf("emitted %d but flushed %d", em, reply.Flushed)
	}
}

// TestStreamHTTPDurableField: the /stream reply reports whether the
// engine journals ingested batches to a write-ahead log.
func TestStreamHTTPDurableField(t *testing.T) {
	_, router, _ := buildStreamWorld(t, 43, 120)
	post := func(e *serve.Engine) bool {
		ing := Attach(e, Config{})
		defer ing.Close()
		srv := httptest.NewServer(e.Handler())
		defer srv.Close()
		resp, err := http.Post(srv.URL+"/stream", "application/x-ndjson",
			strings.NewReader(`{"vehicle":"v1","t":1,"x":10,"y":10}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var reply struct {
			Durable bool `json:"durable"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatal(err)
		}
		return reply.Durable
	}

	durable, err := serve.NewDurableEngine(router.IngestClone(), serve.Options{WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	if !post(durable) {
		t.Fatal("durable engine /stream reply says durable=false")
	}
	if post(serve.NewEngine(router.IngestClone(), serve.Options{})) {
		t.Fatal("plain engine /stream reply says durable=true")
	}
}
