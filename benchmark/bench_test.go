package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, sp := range specs {
		a := scheduleHash(sp.schedule(7, 5000))
		if b := scheduleHash(sp.schedule(7, 5000)); a != b {
			t.Errorf("%s: seed 7 hashed %016x then %016x", sp.name, a, b)
		}
		if c := scheduleHash(sp.schedule(8, 5000)); a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", sp.name)
		}
	}
}

func TestIngestScheduleKeepsTheBatchSetAndTheTail(t *testing.T) {
	sp, _ := specByName("ingest_stream")
	// The tail starts with the ingest that checkpoints.
	fixed := sp.tailOps + 1
	if got := (sp.ops - sp.tailOps) * batchSize; sp.ckptEvery != got {
		t.Fatalf("CheckpointEvery %d, but the tail starts after %d trajectories", sp.ckptEvery, got)
	}
	for seed := int64(1); seed <= 5; seed++ {
		ops := sp.schedule(seed, 100)[0]
		seen := make([]bool, sp.ops)
		for _, o := range ops {
			if o.kind != opIngest || seen[o.arg] {
				t.Fatalf("seed %d: op %+v repeats a batch or is not an ingest", seed, o)
			}
			seen[o.arg] = true
		}
		for i, o := range ops[sp.ops-fixed:] {
			if want := int32(sp.ops - fixed + i); o.arg != want {
				t.Errorf("seed %d: tail op %d is batch %d, want %d", seed, i, o.arg, want)
			}
		}
	}
}

func TestTailPercentileHasTenSamplesBeyond(t *testing.T) {
	for _, sp := range specs {
		n := sp.clients * sp.ops * (1 + sp.reads)
		got := beyond(n, sp.tail)
		// ingest_stream's 16 operations cannot give any percentile ten
		// samples beyond it; README.md says so.
		if sp.name != "ingest_stream" && got < 10 {
			t.Errorf("%s: p%g of %d samples has %d beyond, want at least 10", sp.name, sp.tail, n, got)
		}
	}
}

func TestFoldMinKeepsThePositionMinimum(t *testing.T) {
	min := []int64{5, 9, 7}
	foldMin(min, []int64{6, 3, 7})
	foldMin(min, []int64{4, 8, 9})
	if want := []int64{4, 3, 7}; !slices.Equal(min, want) {
		t.Errorf("minima %v, want %v", min, want)
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
		over int
	}{{50, 500, 500}, {80, 800, 200}, {99, 990, 10}, {99.9, 999, 1}, {100, 1000, 0}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%g = %d, want %d", c.p, got, c.want)
		}
		if got := beyond(len(s), c.p); got != c.over {
			t.Errorf("beyond p%g = %d, want %d", c.p, got, c.over)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 13], n=4)
	q1, q2, q3 := quartiles([]float64{13, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	for i, c := range [][2]float64{{q1, 2.75}, {q2, 5.5}, {q3, 8.25}} {
		if math.Abs(c[0]-c[1]) > 1e-12 {
			t.Errorf("quartile %d = %v, want %v", i+1, c[0], c[1])
		}
	}
}

func TestLedgerSelfTimeAndGap(t *testing.T) {
	tr := &tracer{t0: time.Now()}
	add := func(l layer, parent int32, ns int64) int32 {
		id := int32(len(tr.spans))
		tr.spans = append(tr.spans, span{id: id, parent: parent, layer: l, end: ns})
		return id
	}
	root := add(lServeIngest, noParent, 100)
	ingest := add(lCoreIngest, root, 80)
	add(lAddPaths, ingest, 10)
	add(lLearn, ingest, 30)
	add(lLearn, ingest, 30)
	add(lFastest, detached, 1000) // a reference: outside the ledger
	add(lRestart, noParent, 500)  // not an operation
	var lg ledger
	lg.add(tr)
	if lg.roots != 100 || lg.rootN != 1 {
		t.Fatalf("roots %d over %d ops, want 100 over 1", lg.roots, lg.rootN)
	}
	for l, want := range map[layer]int64{lServeIngest: 20, lCoreIngest: 10, lAddPaths: 10, lLearn: 60, lFastest: 0} {
		if got := lg.self(l); got != want {
			t.Errorf("self(%s) = %d, want %d", layerNames[l], got, want)
		}
	}
	if got := lg.gapPct(); got != 0 {
		t.Errorf("gap %v%% with children inside their parents, want 0", got)
	}
	// A replay 50 longer than the call it decomposes over-explains it.
	add(lRoute, noParent, 100)
	add(lCoreRoute, int32(len(tr.spans)-1), 150)
	lg = ledger{}
	lg.add(tr)
	if got := lg.gapPct(); math.Abs(got-25) > 1e-9 {
		t.Errorf("gap %v%%, want 25", got)
	}
}

// TestManifestNamesWhatTheHarnessReports keeps BENCHMARK.json and the
// harness's metric lists identical.
func TestManifestNamesWhatTheHarnessReports(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		manifest
		RunSeconds int `json:"run_seconds"`
		PerLayer   []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, harness sized for %d", m.RunSeconds, runSeconds)
	}
	if len(m.Workloads) != len(specs) {
		t.Fatalf("%d workloads, harness has %d", len(m.Workloads), len(specs))
	}
	for i, w := range m.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q, harness has %q", i, w.Name, specs[i].name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, harness has %d", len(m.EndToEnd), len(endToEnd))
	}
	for i, d := range m.EndToEnd {
		if d.Name != endToEnd[i].name || d.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d is %s [%s], harness has %s [%s]", i, d.Name, d.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, harness has %d", len(m.PerLayer), len(perLayer))
	}
	for i, d := range m.PerLayer {
		if d.Name != perLayer[i].name || d.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d is %s [%s], harness has %s [%s]", i, d.Name, d.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestSmoke runs all four workloads, untraced and traced, on the bench
// world: every result line is correct and complete, and every trace
// file is written and parses.
func TestSmoke(t *testing.T) {
	scratch := t.TempDir()
	var out, log bytes.Buffer
	o := options{workload: "all", seed: 3, seconds: runSeconds, smoke: true}
	if err := run(o, env{scale: "ci", scratch: scratch}, &out, &log); err != nil {
		t.Fatalf("smoke run: %v\n%s", err, log.String())
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if len(lines) != 2*len(specs) {
		t.Fatalf("%d result lines, want %d", len(lines), 2*len(specs))
	}
	for i, line := range lines {
		var rep report
		if err := json.Unmarshal(line, &rep); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		defs := endToEnd
		if i%2 == 1 {
			defs = perLayer
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 || len(rep.Metrics) != len(defs) {
			t.Errorf("line %d: correct=%v failed=%d attempted=%d metrics=%d, want a clean run with %d metrics",
				i, rep.Correct, rep.Failed, rep.Attempted, len(rep.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := rep.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("line %d: metric %s missing or in %q, want %q", i, d.name, m.Unit, d.unit)
			}
		}
		if i%2 == 0 {
			for _, d := range endToEnd {
				if rep.Metrics[d.name].Value <= 0 {
					t.Errorf("%s: %s = %v, want above 0", specs[i/2].name, d.name, rep.Metrics[d.name].Value)
				}
			}
		}
	}
	for _, sp := range specs {
		raw, err := os.ReadFile(filepath.Join(scratch, "trace-"+sp.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var f traceFile
		if err := json.Unmarshal(raw, &f); err != nil {
			t.Fatalf("%s trace: %v", sp.name, err)
		}
		if f.Workload != sp.name || len(f.Clients) != sp.clients || len(f.Clients[0]) == 0 {
			t.Errorf("%s trace: workload %q, %d clients", sp.name, f.Workload, len(f.Clients))
		}
	}
	if left, _ := filepath.Glob(filepath.Join(scratch, "tmp", "*")); len(left) > 0 {
		t.Errorf("run left %v behind", left)
	}
}
