package serve

import (
	"context"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pref"
)

// The histogram mechanics themselves are tested in internal/obs; these
// tests pin the serve-level reading of them.

func TestLatencyStatsFromHistogram(t *testing.T) {
	var h obs.Histogram
	// 90 fast observations (~8µs) and 10 slow ones (~1ms).
	for i := 0; i < 90; i++ {
		h.Observe(8 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1 * time.Millisecond)
	}
	ls := latencyStats(&h)
	if ls.Queries != 100 {
		t.Fatalf("queries = %d", ls.Queries)
	}
	if ls.P50 > 16*time.Microsecond {
		t.Fatalf("p50 = %v, expected in the fast band", ls.P50)
	}
	if ls.P99 < 512*time.Microsecond {
		t.Fatalf("p99 = %v, expected in the slow band", ls.P99)
	}
	if ls.P99 < ls.P95 || ls.P95 < ls.P50 {
		t.Fatalf("quantiles not monotone: %+v", ls)
	}
	if ls.Mean <= 0 || ls.Mean > time.Millisecond {
		t.Fatalf("mean = %v", ls.Mean)
	}
}

func TestLatencyStatsEmpty(t *testing.T) {
	var h obs.Histogram
	ls := latencyStats(&h)
	if ls.Queries != 0 || ls.P99 != 0 || ls.Mean != 0 {
		t.Fatalf("empty histogram must report zeros, got %+v", ls)
	}
}

// overall is the merged histogram of every query a reading reports.
func (m *metrics) overall() *obs.Histogram {
	all, _ := m.latency()
	return all
}

// TestLatencyStripesMergeExactly: the latency histograms are striped
// so that concurrent observers do not write the same cache lines;
// whichever stripe an observation landed on, the merged reading must
// count it once, overall and under its category.
func TestLatencyStripesMergeExactly(t *testing.T) {
	const workers, each = 2 * latencyStripes, 500
	var m metrics
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				m.observe(core.Category(i%numCategories), time.Duration(w+1)*time.Microsecond)
			}
		}()
	}
	wg.Wait()
	all := m.overall()
	if got := all.Count(); got != workers*each {
		t.Fatalf("overall count = %d want %d", got, workers*each)
	}
	wantSum := 0.0
	for w := 1; w <= workers; w++ {
		wantSum += float64(w) * each * 1e-6
	}
	if got := all.SumSeconds(); math.Abs(got-wantSum) > 1e-9 {
		t.Fatalf("overall sum = %v s want %v s", got, wantSum)
	}
	var perCat uint64
	for c := 0; c < numCategories; c++ {
		perCat += m.category(c).Count()
	}
	if perCat != workers*each {
		t.Fatalf("per-category counts sum to %d want %d", perCat, workers*each)
	}
	// A category out of range reads as OutRegion, as its String does.
	before := m.category(int(core.OutRegion)).Count()
	m.observe(core.Category(numCategories), time.Microsecond)
	if m.overall().Count() != workers*each+1 || m.category(int(core.OutRegion)).Count() != before+1 {
		t.Fatal("an out-of-range category was not counted as OutRegion")
	}
}

// TestStalenessSurfaced: ingesting live trajectories must populate the
// staleness gauges — region.UpdateStats.StalenessRatio for the last
// batch, plus the cumulative vertex counters its engine-lifetime ratio
// derives from — in Stats() and in the Prometheus catalog.
func TestStalenessSurfaced(t *testing.T) {
	base, fresh := sharedWorld(t)
	e := NewEngine(base.IngestClone(), Options{})

	st := e.Stats()
	if st.IngestedVertices != 0 || st.StalenessRatio != 0 || st.LastStalenessRatio != 0 {
		t.Fatalf("staleness gauges nonzero before any ingest: %+v", st)
	}

	var want int
	for _, b := range matchedBatches(fresh[:12], 4) {
		for _, tr := range b {
			want += len(tr.Truth)
		}
		e.IngestMatched(b)
	}

	st = e.Stats()
	if st.IngestedVertices != uint64(want) {
		t.Fatalf("IngestedVertices = %d, want %d (sum of ingested path lengths)", st.IngestedVertices, want)
	}
	if st.LastStalenessRatio < 0 || st.LastStalenessRatio > 1 {
		t.Fatalf("LastStalenessRatio = %v, want within [0, 1]", st.LastStalenessRatio)
	}
	wantRatio := float64(st.OutOfRegionVertices) / float64(st.IngestedVertices)
	if st.StalenessRatio != wantRatio {
		t.Fatalf("StalenessRatio = %v, want OutOfRegionVertices/IngestedVertices = %v", st.StalenessRatio, wantRatio)
	}

	var buf strings.Builder
	e.WriteMetrics(&buf)
	body := buf.String()
	for _, name := range []string{"l2r_staleness_ratio", "l2r_last_staleness_ratio", "l2r_out_of_region_vertices_total", "l2r_ingested_vertices_total"} {
		if !strings.Contains(body, name) {
			t.Fatalf("/metrics catalog missing %s", name)
		}
	}
}

func TestStatsShapes(t *testing.T) {
	base, fresh := sharedWorld(t)
	e := NewEngine(base.Clone(), Options{})
	for _, q := range queries(fresh, 20) {
		e.Route(q.Src, q.Dst)
	}
	st := e.Stats()
	if st.Queries != 20 {
		t.Fatalf("queries = %d", st.Queries)
	}
	if st.QPS <= 0 {
		t.Fatal("QPS not positive")
	}
	if st.SnapshotGeneration != 1 {
		t.Fatalf("generation = %d", st.SnapshotGeneration)
	}
	if st.Latency.Queries != 20 || st.Latency.P50 == 0 {
		t.Fatalf("latency stats = %+v", st.Latency)
	}
	var catTotal uint64
	for _, cs := range st.PerCategory {
		catTotal += cs.Queries
	}
	if catTotal != 20 {
		t.Fatalf("per-category totals %d != 20", catTotal)
	}
}

// TestLearnSearchLedgerSurfaced: what the relearns did with their
// searches — run, reused, bounded, recalled from the lineage memo, and
// how many of run the hierarchy answered — is reported per ingest,
// annotated on the ingest.apply span, summed into Stats() and exported
// as the l2r_learn_searches_total counter family plus
// l2r_learn_searches_hierarchy_total; a relearn accounts for 21
// searches per sampled path.
func TestLearnSearchLedgerSurfaced(t *testing.T) {
	base, fresh := sharedWorld(t)
	// A lineage of its own: the shared base's memo already holds what
	// other tests ingested, and its answers would leave nothing to run.
	r := ownLineage(t, base)
	tr := obs.NewTracer(obs.Config{SlowThreshold: -1})
	e := NewEngine(r, Options{Tracer: tr})

	var want pref.SearchStats
	for i, b := range matchedBatches(fresh[:12], 4) {
		ctx, root := tr.StartRequest(context.Background(), "test ingest", strconv.Itoa(i))
		st, _ := e.IngestMatchedCtx(ctx, b)
		root.End()
		if st.Relearned == 0 {
			t.Fatalf("batch %d relearned nothing", i)
		}
		l := st.Learn
		if total := l.Total(); total == 0 || total%21 != 0 {
			t.Fatalf("batch %d: ledger %+v = %d searches, want a positive multiple of 21", i, l, total)
		}
		want.Run += l.Run
		want.Reused += l.Reused
		want.Bounded += l.Bounded
		want.Memo += l.Memo
		want.Hierarchy += l.Hierarchy
		// Master-only searches always ride the hierarchy.
		if l.Hierarchy == 0 || l.Hierarchy > l.Run {
			t.Fatalf("batch %d: %d of %d searches run on the hierarchy", i, l.Hierarchy, l.Run)
		}

		traces := tr.Recent(1)
		if len(traces) != 1 {
			t.Fatalf("batch %d: %d traces recorded", i, len(traces))
		}
		annotated := false
		for _, sp := range traces[0].Spans {
			if sp.Name == "ingest.apply" {
				annotated = sp.Attrs["learn_searches"] == strconv.Itoa(l.Run) &&
					sp.Attrs["learn_reused"] == strconv.Itoa(l.Reused) &&
					sp.Attrs["learn_bounded"] == strconv.Itoa(l.Bounded) &&
					sp.Attrs["learn_memo"] == strconv.Itoa(l.Memo) &&
					sp.Attrs["learn_hierarchy"] == strconv.Itoa(l.Hierarchy)
			}
		}
		if !annotated {
			t.Fatalf("batch %d: ingest.apply span does not carry the search ledger: %+v", i, traces[0].Spans)
		}
	}
	if got := e.Stats().LearnSearches; got != want {
		t.Fatalf("Stats().LearnSearches = %+v, want the per-ingest sums %+v", got, want)
	}
	// Later batches relearn edges whose samples keep ground truths an
	// earlier batch scored: the lineage memo answers those searches.
	if want.Memo == 0 {
		t.Fatalf("no search over %+v was answered from the lineage memo", want)
	}

	var buf strings.Builder
	e.WriteMetrics(&buf)
	samples := parseExposition(t, buf.String())
	for series, n := range map[string]int{
		`l2r_learn_searches_total{outcome="run"}`:     want.Run,
		`l2r_learn_searches_total{outcome="reused"}`:  want.Reused,
		`l2r_learn_searches_total{outcome="bounded"}`: want.Bounded,
		`l2r_learn_searches_total{outcome="memo"}`:    want.Memo,
		`l2r_learn_searches_hierarchy_total`:          want.Hierarchy,
	} {
		if got, ok := samples[series]; !ok || got != float64(n) {
			t.Fatalf("%s = %v (present %v), want %d", series, got, ok, n)
		}
	}
}

// TestStatsAgreeWithGeneration: the write path's books ride in the
// snapshot each swap publishes, so Stats read beside a stream of
// ingests never reports a generation without the ingest that made it,
// nor an ingest whose generation it does not report.
func TestStatsAgreeWithGeneration(t *testing.T) {
	base, fresh := sharedWorld(t)
	e := NewEngine(base.Clone(), Options{})
	batches := matchedBatches(fresh, 1)
	const ingests = 200

	done := make(chan struct{})
	var wg sync.WaitGroup
	var reads, disagree atomic.Int64
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				st := e.Stats()
				reads.Add(1)
				if st.Ingests != st.SnapshotGeneration-1 {
					disagree.Add(1)
				}
			}
		}()
	}
	for i := 0; i < ingests; i++ {
		e.IngestMatched(batches[i%len(batches)])
	}
	close(done)
	wg.Wait()
	if n := disagree.Load(); n > 0 {
		t.Fatalf("%d of %d concurrent Stats reads had Ingests != SnapshotGeneration-1", n, reads.Load())
	}
	if st := e.Stats(); st.Ingests != ingests || st.SnapshotGeneration != ingests+1 || st.IngestedTrajectories != ingests {
		t.Fatalf("after %d ingests: %d ingests of %d trajectories at generation %d", ingests, st.Ingests, st.IngestedTrajectories, st.SnapshotGeneration)
	}
}
