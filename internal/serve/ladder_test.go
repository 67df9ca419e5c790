package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/worldgen"
)

// The ladder's workload on each rung: routes between up to ladderODs
// distinct held-out ODs, then ladderBatches ingests of ladderBatchSize
// held-out trips. Twenty-three batches are what the ladder's earlier
// load generator ingested on the ci city, so the T-edges after the
// ingests are comparable with the figures it left.
const ladderODs, ladderBatches, ladderBatchSize = 500, 23, 8

// TestScaleLadder prints one row of the scale ladder for each rung that
// L2R_LADDER lists, comma separated: a worldgen scale name, or a vertex
// count for worldgen.ForVertices; every world has seed 1. Without
// L2R_LADDER it skips. It measures and prints, and fails only when a
// build, a route or a recovery does:
//
//	L2R_LADDER=ci,6000,city go test -count 1 -timeout 30m -run TestScaleLadder -v ./internal/serve
//
// VmHWM is the test process's peak resident set so far, so run the
// rungs in ascending order or one at a time.
func TestScaleLadder(t *testing.T) {
	rungs := os.Getenv("L2R_LADDER")
	if rungs == "" {
		t.Skip("L2R_LADDER names no rungs (for example L2R_LADDER=ci,6000,city)")
	}
	t.Log("| rung | vertices / edges | training trips / T-edges, built and after the ingests / regions | core.Build (cluster, learn, transfer, materialize, CH) | route p50 / p90 | ingest p50 / p99, 8-trip batch | recovery (WAL records) | Retransduce on a clone | artifact / Save / Load | heap, built / loaded router | VmHWM |")
	for _, rung := range strings.Split(rungs, ",") {
		spec, err := worldgen.ForScale(rung, 1)
		if n, nerr := strconv.Atoi(rung); nerr == nil {
			spec, err = worldgen.ForVertices(n, 1), nil
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Log(ladderRow(t, rung, spec))
	}
}

// ladderRow builds spec's world and router and measures one row.
func ladderRow(t *testing.T, rung string, spec worldgen.Spec) string {
	w := worldgen.Build(spec)
	vertices, edges, trips, test := w.Road.NumVertices(), w.Road.NumEdges(), len(w.Train), w.Test
	t0 := time.Now()
	r, err := core.Build(w.Road, w.Train, core.Options{SkipMapMatching: true})
	if err != nil {
		t.Fatalf("%s: Build: %v", rung, err)
	}
	build := time.Since(t0)
	w = nil // the heap below counts the router, not the world's trips
	st := r.Stats()

	var art bytes.Buffer
	t0 = time.Now()
	if err := r.Save(&art); err != nil {
		t.Fatalf("%s: Save: %v", rung, err)
	}
	save := time.Since(t0)
	h1 := liveHeap()
	t0 = time.Now()
	loaded, err := core.Load(bytes.NewReader(art.Bytes()))
	if err != nil {
		t.Fatalf("%s: Load: %v", rung, err)
	}
	load := time.Since(t0)
	h2 := liveHeap()
	runtime.KeepAlive(r) // r is dead from here, so h2 - h3 is the built router
	h3 := liveHeap()

	dir := t.TempDir()
	e := mustDurable(t, loaded.IngestClone(), logOnly(dir))
	defer e.Close()
	route := inProcess(e).route
	var routes []time.Duration
	for _, od := range distinctODs(test, ladderODs) {
		t0 = time.Now()
		if err := route(od[0], od[1], 1); err != nil {
			t.Fatalf("%s: %v", rung, err)
		}
		routes = append(routes, time.Since(t0))
	}
	var ingests []time.Duration
	for _, b := range matchedBatches(cycle(test, ladderBatches*ladderBatchSize), ladderBatchSize) {
		t0 = time.Now()
		e.IngestMatched(b)
		ingests = append(ingests, time.Since(t0))
	}

	// A crash: e stays open, and a second engine recovers from its log.
	t0 = time.Now()
	rec := mustDurable(t, loaded.IngestClone(), logOnly(dir))
	recovery := time.Since(t0)
	records := rec.Stats().Durability.ReplayedRecords
	rec.Close()
	if records != ladderBatches {
		t.Fatalf("%s: recovery replayed %d WAL records, want %d", rung, records, ladderBatches)
	}
	rt := e.Snapshot().IngestClone().Retransduce(core.Options{})

	return fmt.Sprintf("| %s | %d / %d | %d / %d, %d / %d | %v (%v, %v, %v, %v, %v) | %v / %v | %v / %v | %v (%d) | %v | %d B / %v / %v | %.1f / %.1f MB | %s |",
		rung, vertices, edges, trips, st.TEdges, rt.TEdges, st.Regions,
		sig3(build), sig3(st.ClusterTime), sig3(st.LearnTime), sig3(st.TransferTime), sig3(st.MaterializeTime), sig3(st.CHBuildTime+st.CHCustomizeTime),
		quantile(routes, 0.5), quantile(routes, 0.9), quantile(ingests, 0.5), quantile(ingests, 0.99),
		sig3(recovery), records, sig3(rt.Elapsed),
		art.Len(), sig3(save), sig3(load),
		float64(h2-h3)/1e6, float64(h2-h1)/1e6, vmHWM())
}

// quantile is the q-quantile of ds, nearest rank, to three digits.
func quantile(ds []time.Duration, q float64) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return sig3(s[min(len(s)-1, int(q*float64(len(s))))])
}

// sig3 rounds d to three significant digits.
func sig3(d time.Duration) time.Duration {
	unit := time.Duration(1)
	for d/unit >= 1000 {
		unit *= 10
	}
	return d.Round(unit)
}

// liveHeap is the heap in use after two collections, in bytes.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// vmHWM is the process's peak resident set as /proc/self/status reports
// it, or "—" where there is no such file.
func vmHWM() string {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return "—"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.Atoi(strings.TrimSuffix(strings.TrimSpace(v), " kB"))
			return fmt.Sprintf("%.1f MB", float64(kb)*1024/1e6)
		}
	}
	return "—"
}
