package maint

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/region"
	"repro/internal/roadnet"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/traj"
)

// coreOpt is the pipeline configuration every maint test builds with;
// Retransduce takes the build's path-sample cap from the router.
var coreOpt = core.Options{SkipMapMatching: true}

// maintWorld generates a deterministic world: the seeded road network
// and the full simulated trajectory set. Callers regenerate it (same
// seed) when they need a pristine copy of the same trajectories —
// Build and IngestMatched both mutate the trajectories they are given.
func maintWorld(tb testing.TB, seed int64, trips int) (*roadnet.Graph, []*traj.Trajectory) {
	tb.Helper()
	road := roadnet.Generate(roadnet.Tiny(seed))
	ts := traj.NewSimulator(road, traj.D2Like(seed, trips)).Run()
	if len(ts) < 20 {
		tb.Fatalf("simulator made only %d trips", len(ts))
	}
	return road, ts
}

// batchCopies splits live trajectories into ingest batches of n,
// copying each so the source set stays pristine for reference builds.
func batchCopies(live []*traj.Trajectory, n int) [][]*traj.Trajectory {
	var batches [][]*traj.Trajectory
	for i := 0; i < len(live); i += n {
		j := i + n
		if j > len(live) {
			j = len(live)
		}
		var b []*traj.Trajectory
		for k, t := range live[i:j] {
			b = append(b, &traj.Trajectory{ID: i + k, Driver: t.Driver, Depart: t.Depart, Peak: t.Peak, Truth: t.Truth})
		}
		batches = append(batches, b)
	}
	return batches
}

// queryODs samples n OD pairs: trajectory endpoints first (guaranteed
// reachable, trajectory-covered), then seeded-random vertex pairs that
// exercise B-edge and fallback routing.
func queryODs(road *roadnet.Graph, ts []*traj.Trajectory, n int) [][2]roadnet.VertexID {
	var ods [][2]roadnet.VertexID
	for _, t := range ts {
		if len(ods) >= n*3/4 {
			break
		}
		ods = append(ods, [2]roadnet.VertexID{t.Source(), t.Destination()})
	}
	rng := rand.New(rand.NewSource(7))
	for len(ods) < n {
		s := roadnet.VertexID(rng.Intn(road.NumVertices()))
		d := roadnet.VertexID(rng.Intn(road.NumVertices()))
		if s != d {
			ods = append(ods, [2]roadnet.VertexID{s, d})
		}
	}
	return ods
}

// buildMaintEngine builds the offline 60% prefix into a router, wraps
// it in an engine, and attaches a manual-only maintainer (CheckEvery an
// hour out, so only TriggerNow rebuilds). Returns the engine, the
// maintainer, and the held-out live trajectories.
func buildMaintEngine(tb testing.TB, seed int64, trips int, cfg Config) (*serve.Engine, *Maintainer, *roadnet.Graph, []*traj.Trajectory) {
	tb.Helper()
	road, ts := maintWorld(tb, seed, trips)
	cut := len(ts) * 6 / 10
	base, err := core.Build(road, ts[:cut], coreOpt)
	if err != nil {
		tb.Fatalf("Build: %v", err)
	}
	e := serve.NewEngine(base, serve.Options{CacheSize: -1})
	if cfg.CheckEvery == 0 {
		cfg.CheckEvery = time.Hour
	}
	m := Attach(e, cfg)
	return e, m, road, ts[cut:]
}

// TestMaintConvergenceMatchesRebuild is the convergence property test:
// trajectories streamed through a live engine and folded in by the
// maintenance pipeline must yield the same router a from-scratch
// offline build over the same partition and the union of all evidence
// produces — identical T-edge pair sets, identical per-pair preference
// state, and identical answers on 200+ OD queries.
func TestMaintConvergenceMatchesRebuild(t *testing.T) {
	const seed, trips = 47, 600
	e, m, road, live := buildMaintEngine(t, seed, trips, Config{})
	defer m.Close()

	for _, b := range batchCopies(live, 16) {
		e.IngestMatched(b)
	}
	st, err := m.TriggerNow(context.Background())
	if err != nil {
		t.Fatalf("TriggerNow: %v", err)
	}
	if st.Regions == 0 || st.TEdges == 0 {
		t.Fatalf("rebuild saw an empty region graph: %+v", st)
	}
	maintained := e.Snapshot()

	// The reference: rebuild from scratch over the maintained router's
	// own partition and a pristine regeneration of every trajectory it
	// ever saw (training + streamed).
	roadRef, tsRef := maintWorld(t, seed, trips)
	ref, err := core.BuildWithRegions(roadRef, maintained.RegionGraph().Regions, tsRef, coreOpt)
	if err != nil {
		t.Fatalf("BuildWithRegions: %v", err)
	}

	mp, rp := tedgePairs(maintained), tedgePairs(ref)
	if len(mp) != len(rp) {
		t.Fatalf("T-edge pair sets differ: maintained %d, rebuilt %d", len(mp), len(rp))
	}
	for p := range mp {
		if !rp[p] {
			t.Fatalf("maintained T-edge %v missing from the from-scratch rebuild", p)
		}
	}

	mg, rg := maintained.RegionGraph(), ref.RegionGraph()
	if len(mg.Edges) != len(rg.Edges) {
		t.Fatalf("edge counts differ: maintained %d, rebuilt %d", len(mg.Edges), len(rg.Edges))
	}
	for _, me := range mg.Edges {
		re := rg.FindEdge(int(me.R1), int(me.R2))
		if re == nil {
			t.Fatalf("maintained edge %d-%d missing from rebuild", me.R1, me.R2)
		}
		// Pref is only meaningful under HasPref: an edge that lost (or
		// never reached) confidence keeps a stale Pref value that no
		// routing path reads.
		if me.Kind != re.Kind || me.HasPref != re.HasPref || (me.HasPref && me.Pref != re.Pref) {
			t.Fatalf("edge %d-%d diverged: maintained kind=%v haspref=%v pref=%v, rebuilt kind=%v haspref=%v pref=%v",
				me.R1, me.R2, me.Kind, me.HasPref, me.Pref, re.Kind, re.HasPref, re.Pref)
		}
	}

	ods := queryODs(road, tsRef, 220)
	if len(ods) < 200 {
		t.Fatalf("only %d OD pairs sampled, need 200+", len(ods))
	}
	for _, od := range ods {
		got, _ := e.Route(od[0], od[1])
		want := ref.Route(od[0], od[1])
		if got.Category != want.Category || len(got.Path) != len(want.Path) {
			t.Fatalf("%d->%d differs: maintained %v/%d hops, rebuilt %v/%d hops",
				od[0], od[1], got.Category, len(got.Path), want.Category, len(want.Path))
		}
		for i := range got.Path {
			if got.Path[i] != want.Path[i] {
				t.Fatalf("%d->%d differs at hop %d", od[0], od[1], i)
			}
		}
	}
}

// TestMaintRetransduceIdempotent: a second rebuild over unchanged
// evidence must not move the model — the fixed point the crash test's
// "re-run maintenance after recovery" step relies on.
func TestMaintRetransduceIdempotent(t *testing.T) {
	e, m, road, live := buildMaintEngine(t, 49, 400, Config{})
	defer m.Close()
	for _, b := range batchCopies(live, 16) {
		e.IngestMatched(b)
	}
	if _, err := m.TriggerNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	ods := queryODs(road, live, 120)
	first := answersOf(e, ods)
	if _, err := m.TriggerNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if second := answersOf(e, ods); !sameAnswers(first, second) {
		t.Fatal("a no-new-evidence rebuild changed route answers")
	}
}

// tedgePairs returns the region pairs r's T-edges connect, keyed
// [r1, r2] with r1 < r2: edge IDs depend on creation history, pairs
// do not.
func tedgePairs(r *core.Router) map[[2]int]bool {
	out := make(map[[2]int]bool)
	for _, e := range r.RegionGraph().Edges {
		if e.Kind == region.TEdge {
			out[[2]int{int(e.R1), int(e.R2)}] = true
		}
	}
	return out
}

// pairsAdded counts the pairs in now that are not in before.
func pairsAdded(before, now map[[2]int]bool) int {
	n := 0
	for p := range now {
		if !before[p] {
			n++
		}
	}
	return n
}

// TestMaintTEdgesAddedMatchesPairSets holds LastTEdgesAdded — the
// rebuilt model's T-edge count less the installed model's — to the
// number of region pairs that gained a T-edge since the install, across
// ingests, a rebuild, an external publish of a router with fewer
// T-edges, more ingests and a second rebuild.
func TestMaintTEdgesAddedMatchesPairSets(t *testing.T) {
	const seed, trips = 101, 400
	e, m, _, live := buildMaintEngine(t, seed, trips, Config{})
	defer m.Close()
	batches := batchCopies(live, 16)
	half := len(batches) / 2

	rebuild := func(installed map[[2]int]bool) {
		t.Helper()
		if _, err := m.TriggerNow(context.Background()); err != nil {
			t.Fatal(err)
		}
		want := pairsAdded(installed, tedgePairs(e.Snapshot()))
		if got := m.MaintStats().LastTEdgesAdded; got != want || want == 0 {
			t.Fatalf("LastTEdgesAdded = %d, want the pair-set difference %d (> 0)", got, want)
		}
	}

	installed := tedgePairs(e.Snapshot())
	for _, b := range batches[:half] {
		e.IngestMatched(b)
	}
	rebuild(installed)

	// An external router over the same partition, built from a third of
	// the training trips: fewer T-edges than the served model.
	roadX, tsX := maintWorld(t, seed, trips)
	cut := len(tsX) * 6 / 10
	ext, err := core.BuildWithRegions(roadX, e.Snapshot().RegionGraph().Regions, tsX[:cut/3], coreOpt)
	if err != nil {
		t.Fatal(err)
	}
	installed = tedgePairs(ext)
	if len(installed) >= len(tedgePairs(e.Snapshot())) {
		t.Fatalf("external router has %d T-edge pairs, want fewer than the served %d", len(installed), len(tedgePairs(e.Snapshot())))
	}
	e.Publish(ext)
	for _, b := range batches[half:] {
		e.IngestMatched(b)
	}
	rebuild(installed)
}

// answersOf snapshots an engine's answers over a fixed OD set.
func answersOf(e *serve.Engine, ods [][2]roadnet.VertexID) []core.RouteResult {
	out := make([]core.RouteResult, len(ods))
	for i, od := range ods {
		out[i], _ = e.Route(od[0], od[1])
	}
	return out
}

func sameAnswers(a, b []core.RouteResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Category != b[i].Category || len(a[i].Path) != len(b[i].Path) {
			return false
		}
		for j := range a[i].Path {
			if a[i].Path[j] != b[i].Path[j] {
				return false
			}
		}
	}
	return true
}

// TestMaintEvidenceTrigger: the background loop fires a rebuild once
// MinEvidence trajectories accumulate, and stays quiet afterwards while
// nothing new is ingested.
func TestMaintEvidenceTrigger(t *testing.T) {
	e, m, _, live := buildMaintEngine(t, 53, 300, Config{
		CheckEvery:  2 * time.Millisecond,
		MinEvidence: 4,
		DriftTV:     -1, // evidence only
	})
	defer m.Close()

	e.IngestMatched(batchCopies(live, 8)[0])
	waitFor(t, "evidence-triggered rebuild", func() bool { return m.MaintStats().Rebuilds >= 1 })
	st := m.MaintStats()
	if st.LastTrigger != "evidence" {
		t.Fatalf("LastTrigger = %q, want evidence", st.LastTrigger)
	}
	if st.EvidenceSinceRebuild != 0 {
		t.Fatalf("evidence counter = %d after rebuild, want 0", st.EvidenceSinceRebuild)
	}

	// Quiescence: with no new evidence the trigger must not re-fire.
	got := m.MaintStats().Rebuilds
	time.Sleep(50 * time.Millisecond)
	if now := m.MaintStats().Rebuilds; now != got {
		t.Fatalf("rebuilds advanced %d -> %d with no new evidence", got, now)
	}
}

// TestMaintTimerTrigger: with drift and evidence triggers disabled, the
// interval timer alone rebuilds — but only once at least one trajectory
// has arrived since the last publish.
func TestMaintTimerTrigger(t *testing.T) {
	e, m, _, live := buildMaintEngine(t, 53, 300, Config{
		CheckEvery:  2 * time.Millisecond,
		MinEvidence: -1,
		DriftTV:     -1,
		Interval:    10 * time.Millisecond,
	})
	defer m.Close()

	time.Sleep(40 * time.Millisecond)
	if n := m.MaintStats().Rebuilds; n != 0 {
		t.Fatalf("timer fired %d rebuilds with zero evidence", n)
	}
	e.IngestMatched(batchCopies(live, 4)[0])
	waitFor(t, "timer-triggered rebuild", func() bool { return m.MaintStats().Rebuilds >= 1 })
	if lt := m.MaintStats().LastTrigger; lt != "timer" {
		t.Fatalf("LastTrigger = %q, want timer", lt)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestMaintAccumulatorBounds: the engine's books keep counts, not
// paths, so nothing caps them — past the default evidence threshold of
// 4,096 the trigger counter and the running total still hold every path
// an ingest folded in.
func TestMaintAccumulatorBounds(t *testing.T) {
	e, m, _, live := buildMaintEngine(t, 59, 300, Config{})
	defer m.Close()

	const offered = 4096 + 4
	var batch []*traj.Trajectory
	for i := 0; len(batch) < offered; i++ {
		if tr := live[i%len(live)]; len(tr.Truth) >= 2 {
			batch = append(batch, &traj.Trajectory{ID: i, Driver: tr.Driver, Depart: tr.Depart, Peak: tr.Peak, Truth: tr.Truth})
		}
	}
	e.IngestMatched(batch)
	st := m.MaintStats()
	if st.Accumulated != offered || st.EvidenceSinceRebuild != offered {
		t.Fatalf("accumulated %d evidence %d, want %d/%d", st.Accumulated, st.EvidenceSinceRebuild, offered, offered)
	}
}

// TestMaintEndpointAndStats: /debug/maint is 404 until a maintainer is
// attached, then serves the full stats block; Stats().Maintenance and
// /metrics follow the same lifecycle.
func TestMaintEndpointAndStats(t *testing.T) {
	road, ts := maintWorld(t, 61, 300)
	cut := len(ts) * 6 / 10
	base, err := core.Build(road, ts[:cut], coreOpt)
	if err != nil {
		t.Fatal(err)
	}
	e := serve.NewEngine(base, serve.Options{CacheSize: -1})
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/maint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unattached /debug/maint = %d, want 404", resp.StatusCode)
	}
	if e.Stats().Maintenance != nil {
		t.Fatal("Stats().Maintenance set before attach")
	}

	m := Attach(e, Config{CheckEvery: time.Hour})
	defer m.Close()
	e.IngestMatched(batchCopies(ts[cut:], 8)[0])

	resp, err = http.Get(srv.URL + "/debug/maint")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/maint = %d, want 200", resp.StatusCode)
	}
	var body struct {
		Maintenance serve.MaintStats `json:"maintenance"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Maintenance.Accumulated != 8 || body.Maintenance.EvidenceSinceRebuild != 8 {
		t.Fatalf("endpoint stats accumulated=%d evidence=%d, want 8/8",
			body.Maintenance.Accumulated, body.Maintenance.EvidenceSinceRebuild)
	}

	st := e.Stats()
	if st.Maintenance == nil {
		t.Fatal("Stats().Maintenance missing after attach")
	}
	if st.Maintenance.Accumulated != 8 {
		t.Fatalf("Stats().Maintenance.Accumulated = %d, want 8", st.Maintenance.Accumulated)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	sb, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"l2r_maint_accumulated_total", "l2r_maint_evidence_since_rebuild", "l2r_maint_rebuilds_total", "l2r_maint_drift_tv"} {
		if !strings.Contains(string(sb), name) {
			t.Fatalf("/metrics missing %s", name)
		}
	}
	// The evidence counts are the engine's books, and their HELP says so.
	for _, help := range []string{
		"# HELP l2r_maint_accumulated_total Paths the engine's ingests folded in since the engine started; the start-up replay is not counted.\n",
		"# HELP l2r_maint_evidence_since_rebuild Paths the engine's ingests folded in since the installed model, the start-up replay's included until the first publish — compared against the evidence trigger threshold.\n",
	} {
		if !strings.Contains(string(sb), help) {
			t.Fatalf("/metrics lacks the line %q", help)
		}
	}

	// One rebuild later the last cycle says where its time went: four
	// phases inside the cycle's duration, and the solve's iterations.
	rs, err := m.TriggerNow(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ms := e.Stats().Maintenance
	phases := ms.LastLearnTime + ms.LastTransferAssembleTime + ms.LastTransferSolveTime + ms.LastMaterializeTime
	if ms.LastLearnTime <= 0 || ms.LastTransferAssembleTime <= 0 || ms.LastTransferSolveTime <= 0 || ms.LastMaterializeTime <= 0 ||
		phases > ms.LastRebuildTime {
		t.Fatalf("phases learn %v + assemble %v + solve %v + materialize %v = %v, want all > 0 and a sum within last_rebuild_ns %v",
			ms.LastLearnTime, ms.LastTransferAssembleTime, ms.LastTransferSolveTime, ms.LastMaterializeTime, phases, ms.LastRebuildTime)
	}
	if ms.LastTransferAssembleTime+ms.LastTransferSolveTime > rs.TransferTime {
		t.Fatalf("assemble %v + solve %v exceed the transduction's %v", ms.LastTransferAssembleTime, ms.LastTransferSolveTime, rs.TransferTime)
	}
	if ms.LastSolveIterations <= 0 || ms.LastTransferRows <= 0 || ms.LastTransferNNZ < ms.LastTransferRows {
		t.Fatalf("last solve: %d iterations on %d rows, %d entries", ms.LastSolveIterations, ms.LastTransferRows, ms.LastTransferNNZ)
	}
	mresp2, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp2.Body.Close()
	if sb, err = io.ReadAll(mresp2.Body); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`l2r_maint_last_phase_seconds{phase="learn"}`,
		`l2r_maint_last_phase_seconds{phase="transfer_assemble"}`,
		`l2r_maint_last_phase_seconds{phase="transfer_solve"}`,
		`l2r_maint_last_phase_seconds{phase="materialize"}`,
		"l2r_maint_last_solve_iterations " + strconv.Itoa(ms.LastSolveIterations),
	} {
		if !strings.Contains(string(sb), series) {
			t.Fatalf("/metrics missing %s", series)
		}
	}
}

// TestMaintRecoverySeeding: evidence that was WAL-durable but not yet
// rebuilt into the model when the process died must re-seed the
// accumulator on the next attach, so the triggers re-arm instead of
// silently forgetting it.
func TestMaintRecoverySeeding(t *testing.T) {
	_, ts := maintWorld(t, 67, 300)
	cut := len(ts) * 6 / 10
	build := func() *core.Router {
		roadB, tsB := maintWorld(t, 67, 300)
		r, err := core.Build(roadB, tsB[:cut], coreOpt)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	dir := t.TempDir()
	opt := serve.Options{WALDir: dir, CheckpointEvery: -1, CacheSize: -1}
	e1, err := serve.NewDurableEngine(build(), opt)
	if err != nil {
		t.Fatal(err)
	}
	batches := batchCopies(ts[cut:], 8)[:3]
	for _, b := range batches {
		e1.IngestMatched(b)
	}
	e1.Close() // no checkpoint: the WAL tail holds all 24 trajectories

	e2, err := serve.NewDurableEngine(build(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	m := Attach(e2, Config{CheckEvery: time.Hour})
	defer m.Close()

	st := m.MaintStats()
	if st.RecoverySeeded != 24 || st.EvidenceSinceRebuild != 24 {
		t.Fatalf("recovery seeded %d evidence %d, want 24/24: %+v",
			st.RecoverySeeded, st.EvidenceSinceRebuild, st)
	}

	// The seeded evidence counts toward the next rebuild; the rebuild
	// consumes it.
	if _, err := m.TriggerNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	st = m.MaintStats()
	if st.RecoverySeeded != 0 || st.EvidenceSinceRebuild != 0 {
		t.Fatalf("accumulator not reset after rebuild: %+v", st)
	}
}

// TestMaintExternalPublishResets: an external artifact publish
// supersedes the accumulated evidence window — the maintainer rebases
// its baseline on the published router and clears the accumulator.
func TestMaintExternalPublishResets(t *testing.T) {
	e, m, _, live := buildMaintEngine(t, 71, 300, Config{})
	defer m.Close()
	e.IngestMatched(batchCopies(live, 8)[0])
	if st := m.MaintStats(); st.EvidenceSinceRebuild != 8 {
		t.Fatalf("evidence = %d, want 8", st.EvidenceSinceRebuild)
	}
	e.Publish(e.Snapshot().IngestClone())
	if st := m.MaintStats(); st.EvidenceSinceRebuild != 0 || st.RecoverySeeded != 0 {
		t.Fatalf("external publish did not reset the accumulator: %+v", st)
	}
}

// TestMaintSoakConcurrentRebuilds is the mid-traffic publish soak (run
// under -race in CI): routers, an ingester, a stats scraper and a
// maintenance loop hammer one engine; every query must come back with
// a non-empty path — a snapshot swap may never drop a query.
func TestMaintSoakConcurrentRebuilds(t *testing.T) {
	road, ts := maintWorld(t, 73, 400)
	cut := len(ts) * 6 / 10
	base, err := core.Build(road, ts[:cut], coreOpt)
	if err != nil {
		t.Fatal(err)
	}
	e := serve.NewEngine(base, serve.Options{})
	m := Attach(e, Config{CheckEvery: time.Hour})
	defer m.Close()

	ods := queryODs(road, ts[:cut], 64)
	startGen := e.Generation()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var routed, dropped atomic.Uint64

	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				od := ods[rng.Intn(len(ods))]
				res, _ := e.Route(od[0], od[1])
				routed.Add(1)
				if len(res.Path) == 0 {
					dropped.Add(1)
				}
			}
		}(int64(i))
	}

	wg.Add(1)
	go func() { // ingester: recycle the live feed in small batches
		defer wg.Done()
		live := ts[cut:]
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			lo := (i * 4) % len(live)
			hi := lo + 4
			if hi > len(live) {
				hi = len(live)
			}
			e.IngestMatched(batchCopies(live[lo:hi], 4)[0])
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Add(1)
	go func() { // maintenance loop: rebuild as fast as the engine allows
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := m.TriggerNow(context.Background()); err != nil {
				t.Errorf("TriggerNow: %v", err)
				return
			}
		}
	}()

	wg.Add(1)
	go func() { // scraper
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = e.Stats()
			_ = m.MaintStats()
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()

	if routed.Load() == 0 {
		t.Fatal("soak routed nothing")
	}
	if dropped.Load() != 0 {
		t.Fatalf("%d of %d queries dropped during maintenance publishes", dropped.Load(), routed.Load())
	}
	if m.MaintStats().Rebuilds == 0 {
		t.Fatal("soak completed no rebuilds")
	}
	if e.Generation() == startGen {
		t.Fatal("no snapshot was published during the soak")
	}
	t.Logf("soak: %d routes, %d rebuilds, generation %d -> %d",
		routed.Load(), m.MaintStats().Rebuilds, startGen, e.Generation())
}

// TestMaintOverheadBudget gates the serving-latency cost of a
// background rebuild: p99 route latency with a maintenance rebuild
// loop running must stay within 10% of the undisturbed p99. The
// rebuild runs under the write lock, never the read path, so the only
// legitimate cost is memory traffic — not blocking.
func TestMaintOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("latency budget needs full samples")
	}
	if raceEnabled {
		// Instrumented, on two cores, the p99 ratio reads 16-20x (0.25 ms
		// -> 4.2 ms) whatever the engine does: it times the detector. CI's
		// un-instrumented "Maintenance rebuild overhead budget" step is
		// the gate.
		t.Skip("the race detector's own overhead swamps the budget; CI runs this test un-instrumented")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		// With a single CPU the rebuild goroutine and the measured
		// router share one core and the test measures the scheduler,
		// not the engine. The contention this test gates (lock or
		// cache-line interference on the read path) needs a spare core.
		t.Skip("needs >= 2 CPUs to time routing against a concurrent rebuild")
	}

	road, ts := maintWorld(t, 79, 400)
	cut := len(ts) * 6 / 10
	base, err := core.Build(road, ts[:cut], coreOpt)
	if err != nil {
		t.Fatal(err)
	}
	e := serve.NewEngine(base, serve.Options{CacheSize: -1})
	m := Attach(e, Config{CheckEvery: time.Hour})
	defer m.Close()
	for _, b := range batchCopies(ts[cut:], 16) {
		e.IngestMatched(b)
	}
	ods := queryODs(road, ts[:cut], 64)

	const samples = 1500
	p99 := func(rebuilding bool) time.Duration {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if rebuilding {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := m.TriggerNow(context.Background()); err != nil {
						return
					}
				}
			}()
		}
		lat := make([]time.Duration, samples)
		rng := rand.New(rand.NewSource(11))
		for i := range lat {
			od := ods[rng.Intn(len(ods))]
			start := time.Now()
			e.Route(od[0], od[1])
			lat[i] = time.Since(start)
		}
		close(stop)
		wg.Wait()
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[samples*99/100]
	}

	// Three attempts, best ratio wins: a single noisy run (GC pause,
	// scheduler hiccup) must not fail the gate, a systematic regression
	// fails all three.
	best := 0.0
	for attempt := 0; attempt < 3; attempt++ {
		baseline := p99(false)
		loaded := p99(true)
		ratio := float64(loaded) / float64(baseline)
		t.Logf("attempt %d: baseline p99 %v, during-rebuild p99 %v (ratio %.3f)", attempt, baseline, loaded, ratio)
		if best == 0 || ratio < best {
			best = ratio
		}
		if best <= 1.10 {
			return
		}
	}
	t.Fatalf("rebuild added more than 10%% to p99 route latency in all attempts (best ratio %.3f)", best)
}

// TestMaintFleetAttach: a Fleet.Attach function that attaches a
// maintainer covers current and future tenants, runs after the Attach
// function registered before it, and mounts each tenant's
// /t/{name}/debug/maint endpoint.
func TestMaintFleetAttach(t *testing.T) {
	buildFor := func(seed int64) *core.Router {
		road, ts := maintWorld(t, seed, 300)
		r, err := core.Build(road, ts[:len(ts)*6/10], coreOpt)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	fleet := serve.NewFleet(serve.Options{CacheSize: -1})
	defer fleet.Close()
	var order []string // appended under the fleet's registry lock
	fleet.Attach(func(name string, _ *serve.Engine) {
		order = append(order, "hook:"+name)
	})
	if _, err := fleet.Add("acity", buildFor(83)); err != nil {
		t.Fatal(err)
	}

	ms := make(map[string]*Maintainer)
	fleet.Attach(func(name string, e *serve.Engine) {
		order = append(order, "maint:"+name)
		ms[name] = Attach(e, Config{CheckEvery: time.Hour})
	})
	if ms["acity"] == nil {
		t.Fatal("existing tenant did not get a maintainer")
	}

	// A tenant created after attach gets one too, after the function
	// registered first has run.
	if _, err := fleet.Add("bcity", buildFor(89)); err != nil {
		t.Fatal(err)
	}
	if ms["bcity"] == nil {
		t.Fatal("late tenant did not get a maintainer")
	}
	if got, want := strings.Join(order, " "), "hook:acity maint:acity hook:bcity maint:bcity"; got != want {
		t.Fatalf("Attach functions ran as %q, want %q", got, want)
	}

	srv := httptest.NewServer(fleet.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/t/acity/debug/maint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/t/acity/debug/maint = %d, want 200", resp.StatusCode)
	}
}

// countedClose is an attachment whose Close is counted before it
// reaches the attachment it wraps. Attached on the wrapped one's
// endpoint it replaces it, so the engine stops it through the wrapper.
type countedClose struct {
	serve.Attachment
	n *atomic.Int32
}

func (c countedClose) Close() { c.n.Add(1); c.Attachment.Close() }

// TestFleetRemoveReleasesTenant: the fleet owns what rides on its
// tenants. Remove closes the tenant's engine, which stops its
// attachments — the stream pipeline's flusher and the maintainer's
// trigger loop exit — and then releases the write-ahead log, which
// refuses further appends; each attachment is stopped exactly once,
// Close after Remove included.
func TestFleetRemoveReleasesTenant(t *testing.T) {
	road, ts := maintWorld(t, 97, 300)
	cut := len(ts) * 6 / 10
	base, err := core.Build(road, ts[:cut], coreOpt)
	if err != nil {
		t.Fatal(err)
	}
	goroutines := runtime.NumGoroutine()

	fleet := serve.NewFleet(serve.Options{WALDir: t.TempDir(), CheckpointEvery: -1, CacheSize: -1})
	var streamStops, maintStops atomic.Int32
	var m *Maintainer
	fleet.Attach(func(_ string, e *serve.Engine) {
		e.Attach(countedClose{stream.Attach(e, stream.Config{}), &streamStops})
	})
	fleet.Attach(func(_ string, e *serve.Engine) {
		m = Attach(e, Config{CheckEvery: time.Hour})
		e.Attach(countedClose{m, &maintStops})
	})
	e, err := fleet.Add("city", base)
	if err != nil {
		t.Fatal(err)
	}
	batches := batchCopies(ts[cut:], 4)
	e.IngestMatched(batches[0])
	if d := e.Stats().Durability; d == nil || d.WALRecords != 1 || d.WALAppendFailures != 0 {
		t.Fatalf("before Remove: durability %+v, want one journaled record", d)
	}

	if !fleet.Remove("city") {
		t.Fatal("Remove did not find the tenant")
	}
	if s, mt := streamStops.Load(), maintStops.Load(); s != 1 || mt != 1 {
		t.Fatalf("Remove stopped the stream pipeline %d and the maintainer %d times, want once each", s, mt)
	}
	select {
	case <-m.done:
	default:
		t.Fatal("the maintainer's trigger loop is still running after Remove")
	}
	waitFor(t, "the attachments' background loops to exit", func() bool {
		return runtime.NumGoroutine() <= goroutines
	})
	// The engine handle still answers from memory, but its log is closed.
	e.IngestMatched(batches[1])
	if d := e.Stats().Durability; d.WALRecords != 1 || d.WALAppendFailures != 1 {
		t.Fatalf("after Remove: %d records journaled, %d appends refused; want 1 and 1", d.WALRecords, d.WALAppendFailures)
	}

	if err := fleet.Close(); err != nil {
		t.Fatal(err)
	}
	if s, mt := streamStops.Load(), maintStops.Load(); s != 1 || mt != 1 {
		t.Fatalf("Close after Remove stopped again: stream %d, maintainer %d", s, mt)
	}
}
