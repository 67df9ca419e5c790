package quality

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/maint"
	"repro/internal/roadnet"
	"repro/internal/serve"
	"repro/internal/traj"
)

// buildWorld builds a router from the first 60% of a simulated
// trajectory stream and returns it with the rest for live ingestion.
func buildWorld(tb testing.TB, seed int64, trips int) (*core.Router, []*traj.Trajectory) {
	tb.Helper()
	road := roadnet.Generate(roadnet.Tiny(seed))
	ts := traj.NewSimulator(road, traj.D2Like(seed, trips)).Run()
	if len(ts) < 10 {
		tb.Fatalf("simulator made only %d trips", len(ts))
	}
	cut := len(ts) * 6 / 10
	r, err := core.Build(road, ts[:cut], core.Options{SkipMapMatching: true})
	if err != nil {
		tb.Fatalf("Build: %v", err)
	}
	return r, ts[cut:]
}

var (
	worldOnce  sync.Once
	worldBase  *core.Router
	worldFresh []*traj.Trajectory
)

// sharedWorld amortizes one offline build; engines deep-clone before
// mutating, so handing each test a Clone is safe.
func sharedWorld(tb testing.TB) (*core.Router, []*traj.Trajectory) {
	tb.Helper()
	worldOnce.Do(func() { worldBase, worldFresh = buildWorld(tb, 43, 400) })
	return worldBase, worldFresh
}

func TestStrideSamplingExact(t *testing.T) {
	for _, rate := range []float64{0.1, 0.25, 0.5, 0.9, 1} {
		const n = 1000
		got := 0
		for i := uint64(1); i <= n; i++ {
			if strideSampled(i, rate) {
				got++
			}
		}
		want := int(math.Floor(n * rate))
		if got != want {
			t.Errorf("rate %v: sampled %d of %d, want exactly %d", rate, got, n, want)
		}
	}
}

// Every sample the observer accepts must be accounted for: after Drain,
// scored + skipped + dropped covers exactly the deterministic sample.
func TestOfferAccounting(t *testing.T) {
	base, fresh := sharedWorld(t)
	e := serve.NewEngine(base.Clone(), serve.Options{})
	o := Attach(e, Config{SampleRate: 0.25, queue: 4096, maxPerSec: -1})
	defer o.Close()

	const rounds = 8
	per := len(fresh)
	for i := 0; i < rounds; i++ {
		o.OfferTrajectories(fresh)
	}
	o.Drain()

	qs := o.QualityStats()
	offered := uint64(rounds * per)
	if qs.Offered != offered {
		t.Fatalf("Offered = %d want %d", qs.Offered, offered)
	}
	wantSampled := uint64(math.Floor(float64(offered) * 0.25))
	if qs.Sampled != wantSampled {
		t.Fatalf("Sampled = %d want exactly %d (stride sampling)", qs.Sampled, wantSampled)
	}
	if qs.Dropped != 0 {
		t.Fatalf("Dropped = %d want 0 (queue was large enough)", qs.Dropped)
	}
	if qs.Scored+qs.Skipped != qs.Sampled {
		t.Fatalf("Scored %d + Skipped %d != Sampled %d", qs.Scored, qs.Skipped, qs.Sampled)
	}
	if qs.Scored == 0 {
		t.Fatal("nothing scored: sampled driven paths should be routable on their own world")
	}
}

func TestObserverEndToEnd(t *testing.T) {
	base, fresh := sharedWorld(t)
	e := serve.NewEngine(base.Clone(), serve.Options{})
	startGen := e.Generation()
	o := Attach(e, Config{SampleRate: 1, queue: 4096, maxPerSec: -1, Ring: 4})
	defer o.Close()

	// Ingest through the engine's own write path: the engine must offer
	// the batch to the attached observer by itself.
	n := len(fresh)
	if n > 60 {
		n = 60
	}
	e.Ingest(fresh[:n])
	o.Drain()

	qs := o.QualityStats()
	if qs.Offered != uint64(n) || qs.Sampled != uint64(n) {
		t.Fatalf("offered/sampled = %d/%d want %d/%d", qs.Offered, qs.Sampled, n, n)
	}
	if qs.Scored == 0 {
		t.Fatal("no shadow scores after ingesting on the same world")
	}
	if qs.Total.Scores != qs.Scored {
		t.Fatalf("Total.Scores = %d want %d", qs.Total.Scores, qs.Scored)
	}
	if qs.Total.Eq1Pct <= 0 || qs.Total.Eq1Pct > 100 {
		t.Fatalf("Eq1Pct = %v out of (0, 100]", qs.Total.Eq1Pct)
	}
	if qs.Total.Eq4Pct > qs.Total.Eq1Pct {
		t.Fatalf("Eq4 (%v) cannot exceed Eq1 (%v): union >= gt length", qs.Total.Eq4Pct, qs.Total.Eq1Pct)
	}
	if len(qs.PerCategory) == 0 || len(qs.PerDistance) == 0 {
		t.Fatalf("missing breakdowns: categories %v distances %v", qs.PerCategory, qs.PerDistance)
	}
	if qs.BaselineGeneration != startGen {
		t.Fatalf("BaselineGeneration = %d want attach-time %d", qs.BaselineGeneration, startGen)
	}
	if qs.Regions <= 0 || qs.RegionCoverage < 0 || qs.RegionCoverage > 1 {
		t.Fatalf("region gauges out of range: %d regions, coverage %v", qs.Regions, qs.RegionCoverage)
	}
	if qs.EvidenceAge <= 0 {
		t.Fatalf("EvidenceAge = %v want > 0 after an ingest", qs.EvidenceAge)
	}

	ex := o.Exemplars()
	if len(ex) == 0 || len(ex) > 4 {
		t.Fatalf("exemplars = %d want 1..4 (ring size)", len(ex))
	}
	for i := 1; i < len(ex); i++ {
		if ex[i].Eq1Pct < ex[i-1].Eq1Pct {
			t.Fatalf("exemplars not sorted worst first: %v then %v", ex[i-1].Eq1Pct, ex[i].Eq1Pct)
		}
	}
	for _, x := range ex {
		if len(x.Served) < 2 || len(x.Driven) < 2 {
			t.Fatalf("exemplar paths missing: %+v", x)
		}
	}
}

func TestDebugQualityEndpoint(t *testing.T) {
	base, fresh := sharedWorld(t)

	// Without an observer the endpoint reports 404.
	bare := serve.NewEngine(base.Clone(), serve.Options{})
	srv := httptest.NewServer(bare.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/quality")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unattached /debug/quality: status %d want 404", resp.StatusCode)
	}

	e := serve.NewEngine(base.Clone(), serve.Options{})
	o := Attach(e, Config{SampleRate: 1, queue: 1024, maxPerSec: -1})
	defer o.Close()
	e.Ingest(fresh[:20])
	o.Drain()

	srv2 := httptest.NewServer(e.Handler())
	defer srv2.Close()
	resp, err = http.Get(srv2.URL + "/debug/quality")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/quality: status %d want 200", resp.StatusCode)
	}
	var body struct {
		Quality   serve.QualityStats `json:"quality"`
		Exemplars []Exemplar         `json:"exemplars"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding /debug/quality: %v", err)
	}
	if body.Quality.Scored == 0 || len(body.Exemplars) == 0 {
		t.Fatalf("empty quality payload: %+v", body.Quality)
	}

	// The engine's stats and metrics surfaces carry the same observer.
	st := e.Stats()
	if st.Quality == nil || st.Quality.Scored != body.Quality.Scored {
		t.Fatalf("Stats().Quality = %+v, endpoint said %d scored", st.Quality, body.Quality.Scored)
	}
}

// An external Publish swaps the model out from under the observer; the
// drift baseline must follow it.
func TestPublishRebasesBaseline(t *testing.T) {
	base, fresh := sharedWorld(t)
	e := serve.NewEngine(base.Clone(), serve.Options{})
	o := Attach(e, Config{SampleRate: 0})
	defer o.Close()

	e.Ingest(fresh[:30])
	gen := e.Generation()
	if bg := o.QualityStats().BaselineGeneration; bg >= gen {
		t.Fatalf("baseline generation %d should predate ingest generation %d", bg, gen)
	}

	e.Publish(base.IngestClone())
	qs := o.QualityStats()
	if qs.BaselineGeneration != e.Generation() {
		t.Fatalf("after Publish: baseline gen %d want %d", qs.BaselineGeneration, e.Generation())
	}
	if qs.DriftTV != 0 {
		t.Fatalf("after Publish the served model IS the baseline; DriftTV = %v want 0", qs.DriftTV)
	}
}

// TestDriftGaugesAgree: the observer and the maintainer report one
// drift block, the engine's, however far apart they attached — the
// observer before the first ingest, the maintainer after it — bit for
// bit; and after a Publish both read 0 against a baseline taken at the
// published generation.
func TestDriftGaugesAgree(t *testing.T) {
	base, fresh := sharedWorld(t)
	e := serve.NewEngine(base.Clone(), serve.Options{})
	defer e.Close()
	Attach(e, Config{})
	e.Ingest(fresh[:40])
	maint.Attach(e, maint.Config{DriftTV: -1, MinEvidence: -1})
	e.Ingest(fresh[40:80])

	st := e.Stats()
	q, m := st.Quality, st.Maintenance
	if q.DriftTV == 0 {
		t.Fatal("two ingests moved no preference mass; the comparison below would be vacuous")
	}
	if math.Float64bits(q.DriftTV) != math.Float64bits(m.DriftTV) || q.BaselineGeneration != 1 {
		t.Fatalf("quality drift_tv %v (baseline generation %d), maintenance drift_tv %v: want one gauge against generation 1",
			q.DriftTV, q.BaselineGeneration, m.DriftTV)
	}

	e.Publish(base.IngestClone())
	st = e.Stats()
	q, m = st.Quality, st.Maintenance
	if q.DriftTV != 0 || m.DriftTV != 0 || q.BaselineGeneration != st.SnapshotGeneration {
		t.Fatalf("after Publish at generation %d: quality drift_tv %v against generation %d, maintenance drift_tv %v; want 0, 0 and the published generation",
			st.SnapshotGeneration, q.DriftTV, q.BaselineGeneration, m.DriftTV)
	}
}

// Soak: shadow scoring must coexist with concurrent routing, ingest and
// hot model reloads without races or blocking the serve path. Run under
// -race in CI.
func TestQualitySoakConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	base, fresh := sharedWorld(t)
	e := serve.NewEngine(base.Clone(), serve.Options{})
	o := Attach(e, Config{SampleRate: 1, queue: 1024, maxPerSec: -1, Ring: 8})
	defer o.Close()

	stop := make(chan struct{})
	var routes atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) { // query load
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tr := fresh[(i*7+w)%len(fresh)]
				if _, ok := e.Route(tr.Source(), tr.Destination()); ok {
					routes.Add(1)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // live ingest
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			lo := (i * 8) % len(fresh)
			hi := lo + 8
			if hi > len(fresh) {
				hi = len(fresh)
			}
			e.Ingest(fresh[lo:hi])
		}
	}()
	wg.Add(1)
	go func() { // hot reloads + stats scrapes
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Millisecond):
			}
			if i%3 == 2 {
				e.Publish(base.IngestClone())
			}
			_ = o.QualityStats()
			_ = o.Exemplars()
		}
	}()

	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	o.Drain()

	qs := o.QualityStats()
	if routes.Load() == 0 {
		t.Fatal("serve path made no progress during the soak")
	}
	if qs.Scored+qs.Skipped+qs.Dropped != qs.Sampled {
		t.Fatalf("accounting leak: scored %d + skipped %d + dropped %d != sampled %d",
			qs.Scored, qs.Skipped, qs.Dropped, qs.Sampled)
	}
	if qs.Scored == 0 {
		t.Fatal("soak scored nothing")
	}
}
