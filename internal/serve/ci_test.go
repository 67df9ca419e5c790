package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/traj"
	"repro/internal/wal"
	"repro/internal/worldgen"
)

// The ci-scale schedule: ciBatches ingest batches of ciBatchSize
// held-out trips, each after ciReadsPerBatch Zipf(1.2) reads over
// ciODs distinct held-out ODs.
const ciODs, ciBatches, ciBatchSize, ciReadsPerBatch = 220, 100, 4, 8

// ciSchedule is one seeded replay of the ci city: live cycles through
// the held-out trips, reads holds ciReadsPerBatch ODs per batch.
type ciSchedule struct {
	ods   [][2]roadnet.VertexID
	live  []*traj.Trajectory
	reads [][2]roadnet.VertexID
}

var (
	ciOnce  sync.Once
	ciBase  *core.Router
	ciSched *ciSchedule
	ciErr   error
)

// ciWorld builds the ci city (seed 1), its router and its schedule once
// per package run. Engines must wrap the router in an IngestClone or
// ownLineage; nothing may mutate it.
func ciWorld(t *testing.T) (*core.Router, *ciSchedule) {
	t.Helper()
	ciOnce.Do(func() {
		w := worldgen.Build(worldgen.MustScale(worldgen.ScaleCI, 1))
		if ciBase, ciErr = core.Build(w.Road, w.Train, core.Options{SkipMapMatching: true}); ciErr != nil {
			return
		}
		ciSched, ciErr = newCISchedule(w.Test)
	})
	if ciErr != nil {
		t.Fatal(ciErr)
	}
	return ciBase, ciSched
}

func newCISchedule(test []*traj.Trajectory) (*ciSchedule, error) {
	s := &ciSchedule{ods: distinctODs(test, ciODs), live: cycle(test, ciBatches*ciBatchSize)}
	if len(s.ods) < ciODs {
		return nil, fmt.Errorf("%d distinct held-out ODs, want %d", len(s.ods), ciODs)
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.2, 1, ciODs-1)
	s.reads = make([][2]roadnet.VertexID, ciBatches*ciReadsPerBatch)
	for i := range s.reads {
		s.reads[i] = s.ods[zipf.Uint64()]
	}
	return s, nil
}

// distinctODs is the first n distinct ODs of the trips with a path.
func distinctODs(ts []*traj.Trajectory, n int) [][2]roadnet.VertexID {
	var ods [][2]roadnet.VertexID
	seen := make(map[[2]roadnet.VertexID]bool)
	for _, tr := range ts {
		od := [2]roadnet.VertexID{tr.Source(), tr.Destination()}
		if len(tr.Truth) < 2 || seen[od] {
			continue
		}
		seen[od] = true
		if ods = append(ods, od); len(ods) == n {
			break
		}
	}
	return ods
}

// cycle is n trips taken from ts in order, starting over at its end.
func cycle(ts []*traj.Trajectory, n int) []*traj.Trajectory {
	out := make([]*traj.Trajectory, n)
	for i := range out {
		out[i] = ts[i%len(ts)]
	}
	return out
}

// logOnly journals to dir without fsync or checkpoints, so a recovery
// from dir replays every batch.
func logOnly(dir string) Options {
	return Options{WALDir: dir, CheckpointEvery: -1, WALSync: wal.SyncNone}
}

// client is one way of reaching an engine: route asks for k routes
// (k 1 is Route) and fails on an empty answer.
type client struct {
	route  func(s, d roadnet.VertexID, k int) error
	ingest func(b []*traj.Trajectory) error
}

// play replays the schedule on workers goroutines. Step i routes its
// reads, Route and RouteK(4) alternately, then ingests batch i; one
// worker replays the steps in order. It returns the first error a call
// reported.
func (s *ciSchedule) play(workers int, c client) error {
	batches := matchedBatches(s.live, ciBatchSize)
	var next atomic.Int64
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(batches); i = int(next.Add(1) - 1) {
				for j, od := range s.reads[i*ciReadsPerBatch : (i+1)*ciReadsPerBatch] {
					if err := c.route(od[0], od[1], 1+3*(j%2)); err != nil {
						errs <- err
						return
					}
				}
				if err := c.ingest(batches[i]); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// inProcess calls the engine's methods.
func inProcess(e *Engine) client {
	return client{
		route: func(s, d roadnet.VertexID, k int) error {
			var path roadnet.Path
			if k == 1 {
				res, _ := e.Route(s, d)
				path = res.Path
			} else if rs, _ := e.RouteK(s, d, k); len(rs) > 0 {
				path = rs[0].Path
			}
			if len(path) == 0 {
				return fmt.Errorf("%d->%d, k %d: no path", s, d, k)
			}
			return nil
		},
		ingest: func(b []*traj.Trajectory) error {
			e.IngestMatched(b)
			return nil
		},
	}
}

// overHTTP calls GET /route, GET /route/alternatives and POST /ingest on
// the server at url; any reply but 200 fails.
func overHTTP(url string) client {
	do := func(req *http.Request, out any) error {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s %s: HTTP %d", req.Method, req.URL, resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return client{
		route: func(s, d roadnet.VertexID, k int) error {
			u := fmt.Sprintf("%s/route?src=%d&dst=%d", url, s, d)
			if k > 1 {
				u = fmt.Sprintf("%s/route/alternatives?src=%d&dst=%d&k=%d", url, s, d, k)
			}
			req, _ := http.NewRequest(http.MethodGet, u, nil)
			var reply struct{ Routes []RouteJSON }
			if err := do(req, &reply); err != nil {
				return err
			}
			if len(reply.Routes) == 0 || len(reply.Routes[0].Path) == 0 {
				return fmt.Errorf("GET %s: no path", u)
			}
			return nil
		},
		ingest: func(b []*traj.Trajectory) error {
			var body ingestRequest
			for _, t := range b {
				p := make([]int, len(t.Truth))
				for i, v := range t.Truth {
					p[i] = int(v)
				}
				body.Paths = append(body.Paths, p)
			}
			buf, _ := json.Marshal(body) // ints only: it cannot fail
			req, _ := http.NewRequest(http.MethodPost, url+"/ingest", bytes.NewReader(buf))
			var reply ingestReply
			return do(req, &reply)
		},
	}
}

// TestCIServeSmoke drives the ci schedule on two concurrent workers
// against a durable engine, in process and then over a loopback HTTP
// server: every route must find a path, every reply must be 200.
func TestCIServeSmoke(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("ci scale: skipped under -short and -race")
	}
	base, s := ciWorld(t)

	e := mustDurable(t, ownLineage(t, base), logOnly(t.TempDir()))
	defer e.Close()
	if err := s.play(2, inProcess(e)); err != nil {
		t.Fatalf("in process: %v", err)
	}

	h := mustDurable(t, ownLineage(t, base), logOnly(t.TempDir()))
	defer h.Close()
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()
	if err := s.play(2, overHTTP(srv.URL)); err != nil {
		t.Fatalf("over HTTP: %v", err)
	}
	if st := h.Stats(); st.Ingests != ciBatches {
		t.Fatalf("%d ingests over HTTP, want %d", st.Ingests, ciBatches)
	}
}
