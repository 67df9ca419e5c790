package main

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"time"
)

// metric is one reported number; the driver reads value and unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric of BENCHMARK.json and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics, the same on every workload.
var endToEnd = []metricDef{
	{"op_p50_us", "us"},
	{"op_tail_us", "us"},
	{"ops_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"alloc_kb_per_op", "KB"},
	{"mallocs_per_op", "count"},
	{"heap_live_mb", "MB"},
	{"eq1_acc_pct", "%"},
	{"restart_s", "s"},
	{"setup_s", "s"},
}

// metricsOf gives every metric of defs its unit and its value; a
// metric the run did not produce reads 0.
func metricsOf(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{vals[d.name], d.unit}
	}
	return out
}

// newSamples allocates one sample buffer per client.
func newSamples(sched [][]op) [][]int64 {
	out := make([][]int64, len(sched))
	for c := range sched {
		out[c] = make([]int64, len(sched[c]))
	}
	return out
}

// measure replays the workload sp.passes times and reduces the passes
// to the end-to-end metrics. Latencies are per-position minima over
// the passes; once-per-pass quantities take the minimum pass;
// allocation counters, which do not drift with the box, the median.
//
// The set-up runs a second time, for its time alone, before the middle
// pass. The box's memory system is disturbed in bursts of seconds to
// tens of seconds, so the passes, and the two set-ups, then sample two
// windows a build apart instead of one; setup_s is the faster of the
// two, since a burst only ever adds time.
func (e env) measure(wd *world, sp spec, seed int64, log io.Writer) (report, error) {
	sched := sp.schedule(seed, len(wd.pool))
	mins, cur := newSamples(sched), newSamples(sched)
	var rep report
	var first, last pass
	var cpu, restart, alloc, mallocs []float64
	ops := 0
	for c := range sched {
		ops += len(sched[c])
	}
	setups := []float64{wd.setupS}
	var measuring time.Duration
	for i := 0; i < sp.passes; i++ {
		if i == sp.passes/2 {
			again, err := e.setUp()
			if err != nil {
				return rep, err
			}
			setups = append(setups, again.setupS)
		}
		t0 := time.Now()
		buf := cur
		if i == 0 {
			buf = mins
		}
		p, err := e.runPass(wd, sp, sched, buf, i == 0, i == sp.passes-1)
		if err != nil {
			return rep, fmt.Errorf("%s pass %d: %w", sp.name, i, err)
		}
		rep.Attempted += p.attempted
		rep.Failed += p.failed
		if i == 0 {
			first = p
		} else {
			for c := range sched {
				foldMin(mins[c], cur[c])
			}
			// The same schedule on the same artifact: every pass must
			// give every client the same answers.
			if !slices.Equal(p.sums, first.sums) {
				rep.Failed++
				fmt.Fprintf(log, "%s: pass %d answered differently from pass 0\n", sp.name, i)
			}
		}
		// Pass 0 walks every path and decodes every reply inside the
		// window, so its allocation counts are the checker's too.
		if i > 0 || sp.passes == 1 {
			alloc = append(alloc, float64(p.allocB)/1024/float64(ops))
			mallocs = append(mallocs, float64(p.mallocs)/float64(ops))
		}
		cpu = append(cpu, p.cpuUS/float64(ops))
		restart = append(restart, p.restartS)
		last = p
		measuring += time.Since(t0)
	}

	var pooled []int64
	slowest := int64(0)
	for c := range mins {
		pooled = append(pooled, mins[c]...)
		slowest = max(slowest, sum(mins[c]))
	}
	sort.Slice(pooled, func(i, j int) bool { return pooled[i] < pooled[j] })
	rep.Metrics = metricsOf(endToEnd, map[string]float64{
		"op_p50_us":       float64(percentile(pooled, 50)) / 1e3,
		"op_tail_us":      float64(percentile(pooled, sp.tail)) / 1e3,
		"ops_per_s":       float64(ops) / (float64(slowest) / 1e9),
		"cpu_us_per_op":   slices.Min(cpu),
		"alloc_kb_per_op": medianFloat(alloc),
		"mallocs_per_op":  medianFloat(mallocs),
		"heap_live_mb":    last.heapMB,
		"eq1_acc_pct":     last.eq1,
		"restart_s":       slices.Min(restart),
		"setup_s":         slices.Min(setups),
	})
	rep.Correct = rep.Failed == 0

	fmt.Fprintf(log, "%s: seed %d, schedule %016x, %d passes x %d clients x %d ops and %d restarts in %.1f s, tail = p%g over %d samples (%d beyond), set-ups %.3f s\n",
		sp.name, seed, scheduleHash(sched), sp.passes, sp.clients, len(sched[0]), max(1, sp.restarts), measuring.Seconds(), sp.tail, len(pooled), beyond(len(pooled), sp.tail), setups)
	return rep, nil
}

// print writes the metrics of defs with their units in a fixed order,
// then the failure count. The per-layer list is long and mostly zero
// off a layer's own workload, so there zeros are counted, not listed.
func (r report) print(w io.Writer, name string, defs []metricDef, listZeros bool) {
	zeros := 0
	for _, d := range defs {
		if v := r.Metrics[d.name].Value; v != 0 || listZeros {
			fmt.Fprintf(w, "  %-44s %14.4f %s\n", name+"/"+d.name, v, d.unit)
		} else {
			zeros++
		}
	}
	if zeros > 0 {
		fmt.Fprintf(w, "  %d layer metrics read 0: not exercised by %s\n", zeros, name)
	}
	pct := 0.0
	if r.Attempted > 0 {
		pct = 100 * float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "  %-44s %14.4f %% (%d failed of %d attempted)\n", name+"/fail_pct", pct, r.Failed, r.Attempted)
}
