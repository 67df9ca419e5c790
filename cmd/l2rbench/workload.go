package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/serve"
	"repro/internal/traj"
	"repro/internal/worldgen"
)

// opKind enumerates workload request kinds.
type opKind int

const (
	opRoute opKind = iota
	opAlt
	opPref
	opIngest
	numOps
)

var opNames = [numOps]string{"route", "alternatives", "pref", "ingest"}

// request is one scheduled workload operation.
type request struct {
	kind  opKind
	s, d  roadnet.VertexID
	k     int
	batch []*traj.Trajectory
}

// harness carries everything one l2rbench run needs across stages.
type harness struct {
	cfg      config
	world    *worldgen.World
	router   *core.Router
	schedule []request
}

// parseMix turns "route=55,alternatives=20,pref=15,ingest=10" into
// normalized per-kind shares.
func parseMix(s string) ([numOps]float64, error) {
	var mix [numOps]float64
	total := 0.0
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return mix, fmt.Errorf("bad -mix entry %q (want kind=weight)", part)
		}
		var weight float64
		if _, err := fmt.Sscanf(val, "%g", &weight); err != nil || weight < 0 {
			return mix, fmt.Errorf("bad -mix weight %q", val)
		}
		idx := -1
		for k, n := range opNames {
			if n == name || (name == "alt" && opKind(k) == opAlt) {
				idx = k
				break
			}
		}
		if idx < 0 {
			return mix, fmt.Errorf("unknown -mix kind %q (want one of %v)", name, opNames)
		}
		mix[idx] += weight
		total += weight
	}
	if total <= 0 {
		return mix, fmt.Errorf("-mix has no positive weights")
	}
	for k := range mix {
		mix[k] /= total
	}
	return mix, nil
}

// buildSchedule derives the deterministic request stream: OD pairs are
// drawn Zipf-skewed from the test-trajectory query pool (popular ODs
// dominate, exercising the cache and coalescing the way real traffic
// would), kinds by the mix shares, and ingest batches walk the test
// trajectory set in order, cycling if the schedule outruns it.
func buildSchedule(qs []eval.Query, live []*traj.Trajectory, cfg config, mix [numOps]float64) []request {
	rng := rand.New(rand.NewSource(cfg.seed))
	zipf := rand.NewZipf(rng, cfg.zipfS, 1, uint64(len(qs)-1))
	var cum [numOps]float64
	acc := 0.0
	for k := range mix {
		acc += mix[k]
		cum[k] = acc
	}
	sched := make([]request, 0, cfg.requests)
	nextTraj := 0
	for i := 0; i < cfg.requests; i++ {
		q := qs[zipf.Uint64()]
		req := request{kind: opRoute, s: q.S, d: q.D, k: cfg.altK}
		p := rng.Float64()
		for k := range cum {
			if p <= cum[k] {
				req.kind = opKind(k)
				break
			}
		}
		if req.kind == opIngest {
			batch := make([]*traj.Trajectory, 0, cfg.ingestBatch)
			for len(batch) < cfg.ingestBatch {
				batch = append(batch, live[nextTraj%len(live)])
				nextTraj++
			}
			req.batch = batch
		}
		sched = append(sched, req)
	}
	return sched
}

// replayStats aggregates client-side measurements of one replay.
type replayStats struct {
	hists   [numOps]*obs.Histogram
	ops     [numOps]atomic.Uint64
	errs    atomic.Uint64
	elapsed time.Duration
}

func newReplayStats() *replayStats {
	rs := &replayStats{}
	for k := range rs.hists {
		rs.hists[k] = &obs.Histogram{}
	}
	return rs
}

// replay drains the schedule across workers at the target rate. Each
// worker gets its own executor from newExec (per-worker state such as
// a forked preference engine lives in the closure); request latency is
// measured client-side around the executor call.
func replay(sched []request, workers int, qps float64, rs *replayStats, newExec func() func(request) error) {
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			exec := newExec()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(sched) {
					return
				}
				if qps > 0 {
					due := start.Add(time.Duration(float64(n) / qps * float64(time.Second)))
					time.Sleep(time.Until(due))
				}
				req := sched[n]
				t0 := time.Now()
				err := exec(req)
				rs.hists[req.kind].Observe(time.Since(t0))
				rs.ops[req.kind].Add(1)
				if err != nil {
					rs.errs.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	rs.elapsed = time.Since(start)
}

// newInprocExec executes requests directly against the engine; each
// call builds one worker's executor with its own preference fork.
func (h *harness) newInprocExec(e *serve.Engine) func() func(request) error {
	pe := h.prefEngine()
	var mu sync.Mutex // Fork is read-only on the parent but serialize anyway
	return func() func(request) error {
		mu.Lock()
		fork := pe.Fork()
		mu.Unlock()
		return func(req request) error {
			switch req.kind {
			case opRoute:
				// The bool reports cache/coalesce sharing, not success;
				// an empty path means no route.
				if res, _ := e.Route(req.s, req.d); len(res.Path) == 0 {
					return fmt.Errorf("route %d->%d: no path", req.s, req.d)
				}
			case opAlt:
				if res, _ := e.RouteK(req.s, req.d, req.k); len(res) == 0 || len(res[0].Path) == 0 {
					return fmt.Errorf("alternatives %d->%d: no path", req.s, req.d)
				}
			case opPref:
				if _, _, ok := fork.RoutePref(req.s, req.d, roadnet.TT, noMotorway); !ok {
					return fmt.Errorf("pref %d->%d: no path", req.s, req.d)
				}
			case opIngest:
				e.IngestMatched(req.batch)
			}
			return nil
		}
	}
}

func noMotorway(t roadnet.RoadType) bool { return t != roadnet.Motorway }

// httpServer runs the engine's handler on a loopback listener and
// returns the base URL plus a shutdown func.
func httpServer(e *serve.Engine) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: e.Handler()}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), func() { srv.Close() }, nil
}

// newHTTPExec executes requests over the HTTP API. Pref requests never
// reach it — run() folds their share into opRoute in -http mode.
func newHTTPExec(base string) func() func(request) error {
	return func() func(request) error {
		client := &http.Client{Timeout: 30 * time.Second}
		return func(req request) error {
			switch req.kind {
			case opRoute, opPref:
				return httpGet(client, fmt.Sprintf("%s/route?src=%d&dst=%d", base, req.s, req.d))
			case opAlt:
				return httpGet(client, fmt.Sprintf("%s/route/alternatives?src=%d&dst=%d&k=%d", base, req.s, req.d, req.k))
			case opIngest:
				body := struct {
					Paths [][]int `json:"paths"`
				}{Paths: make([][]int, 0, len(req.batch))}
				for _, t := range req.batch {
					p := make([]int, len(t.Truth))
					for i, v := range t.Truth {
						p[i] = int(v)
					}
					body.Paths = append(body.Paths, p)
				}
				buf, err := json.Marshal(body)
				if err != nil {
					return err
				}
				resp, err := client.Post(base+"/ingest", "application/json", bytes.NewReader(buf))
				if err != nil {
					return err
				}
				defer resp.Body.Close()
				io.Copy(io.Discard, resp.Body)
				if resp.StatusCode != http.StatusOK {
					return fmt.Errorf("ingest: HTTP %d", resp.StatusCode)
				}
			}
			return nil
		}
	}
}

func httpGet(client *http.Client, url string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return nil
}

// scheduleSummary counts scheduled ops per kind for logging.
func scheduleSummary(sched []request) string {
	var counts [numOps]int
	for _, r := range sched {
		counts[r.kind]++
	}
	parts := make([]string, 0, numOps)
	for k, n := range counts {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", opNames[k], n))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}
