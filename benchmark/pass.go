package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/serve"
)

// pass is what one replay of a workload's schedule measured.
type pass struct {
	dur       [][]int64 // per client, per op position, nanoseconds
	sums      []uint64  // per client, hash over every answer in order
	attempted int
	failed    int
	cpuUS     float64 // getrusage user+sys over the measured window
	allocB    uint64  // MemStats.TotalAlloc delta over the window
	mallocs   uint64  // MemStats.Mallocs delta over the window
	restartS  float64 // fastest of the pass's restarts
	heapMB    float64 // last pass only
	eq1       float64 // last pass only
}

func cpuMicros() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	us := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return us(ru.Utime) + us(ru.Stime)
}

func heapAllocMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// loadEngine is a cold start: decode the artifact, contract the
// hierarchy, recover whatever dir holds, serve.
func (wd *world) loadEngine(sp spec, dir string) (*serve.Engine, error) {
	r, err := core.Load(bytes.NewReader(wd.artifact))
	if err != nil {
		return nil, fmt.Errorf("core.Load: %w", err)
	}
	e, err := serve.NewDurableEngine(r, sp.serveOptions(dir))
	if err != nil {
		return nil, fmt.Errorf("NewDurableEngine: %w", err)
	}
	if !e.Ready() {
		return nil, fmt.Errorf("engine not ready after a synchronous start")
	}
	return e, nil
}

func (wd *world) newClient(sp spec, e *serve.Engine, ops []op, full bool) client {
	if sp.handler {
		return newHandlerClient(wd, e, ops, full)
	}
	return &apiClient{wd: wd, e: e, full: full}
}

// answers routes the audit ODs on e.
func (wd *world) answers(e *serve.Engine) []roadnet.Path {
	out := make([]roadnet.Path, len(wd.audit))
	for i, q := range wd.audit {
		res, _ := e.Route(q.s, q.d)
		out[i] = res.Path
	}
	return out
}

// auditMismatches counts the audit ODs the restarted engine answers
// with an invalid walk or differently from the engine it replaced.
func (wd *world) auditMismatches(want []roadnet.Path, restarted *serve.Engine) (n int) {
	for i, got := range wd.answers(restarted) {
		if !validWalk(wd.road, got, wd.audit[i], true) || !slices.Equal(want[i], got) {
			n++
		}
	}
	return n
}

// runPass replays sched once on a fresh engine loaded from the
// artifact, then abandons that engine un-Closed, as a crash would, and
// times the restart on what it left behind. The restarted engine must
// answer the audit ODs path for path like the one it replaced; every
// mismatch counts as a failed operation. full makes the clients walk
// every returned path on the road network; last adds the measurements
// taken once per run. dur supplies the sample buffers to fill.
func (e env) runPass(wd *world, sp spec, sched [][]op, dur [][]int64, full, last bool) (pass, error) {
	dir, err := e.tempDir(sp.name + "-*")
	if err != nil {
		return pass{}, err
	}
	defer os.RemoveAll(dir)

	heapBase := 0.0
	if last {
		heapBase = heapAllocMB()
	}
	eng, err := wd.loadEngine(sp, dir)
	if err != nil {
		return pass{}, err
	}
	clients := make([]client, len(sched))
	for c, ops := range sched {
		clients[c] = wd.newClient(sp, eng, ops, full)
	}
	p := pass{dur: dur, sums: make([]uint64, len(sched))}
	failed := make([]int, len(sched))

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cpu0 := cpuMicros()
	var wg sync.WaitGroup
	for c := range sched {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, out, h := clients[c], dur[c], uint64(fnvOffset)
			for i, o := range sched[c] {
				r := cl.do(o)
				out[i] = r.ns
				h = (h ^ r.sum) * fnvPrime
				if !r.ok {
					failed[c]++
				}
			}
			p.sums[c] = h
		}()
	}
	wg.Wait()
	p.cpuUS = cpuMicros() - cpu0
	runtime.ReadMemStats(&m1)
	p.allocB, p.mallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	clients = nil // the handler clients hold every request of the pass
	for c := range sched {
		p.attempted += len(sched[c])
		p.failed += failed[c]
	}

	if last {
		p.heapMB = heapAllocMB() - heapBase
		p.eq1 = wd.eq1Accuracy(eng.Snapshot().Clone())
	}
	want := wd.answers(eng)
	eng = nil // abandoned, not Closed

	// Recovery never writes, so every restart on dir does the same
	// work; the first one's answers are audited.
	p.restartS = math.Inf(1)
	for i := 0; i < max(1, sp.restarts); i++ {
		runtime.GC() // each restart starts from the same heap state
		t0 := time.Now()
		re, err := wd.loadEngine(sp, dir)
		if err != nil {
			return pass{}, fmt.Errorf("restart: %w", err)
		}
		p.restartS = min(p.restartS, time.Since(t0).Seconds())
		if n := re.Stats().Durability.ReplayedRecords; sp.ingest && n != sp.tailOps {
			return pass{}, fmt.Errorf("restart replayed %d WAL records, the schedule leaves %d after the checkpoint", n, sp.tailOps)
		}
		if i == 0 {
			p.attempted += len(want)
			p.failed += wd.auditMismatches(want, re)
		}
		if err := re.Close(); err != nil {
			return pass{}, err
		}
	}
	return p, nil
}
