// Stream: the missing front half of the online loop. The serving
// examples feed the engine pre-segmented, already-matched vertex
// paths; real deployments receive raw per-vehicle GPS points. This
// walkthrough replays a simulated taxi feed through the streaming
// pipeline — per-vehicle sessionization, windowed online map matching,
// adaptive batching — into a live engine while route queries run
// concurrently, then shows two things: every trip came through the
// interleaved feed whole — matched in one call over its own points (the
// offline pass is the same decoder run to completion) it gets the path
// the stream produced — and hundreds of trajectories reached the router
// through a handful of copy-on-write snapshot swaps.
//
//	go run ./examples/stream
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"repro/internal/mapmatch"
	"repro/internal/roadnet"
	"repro/internal/spatial"
	"repro/internal/traj"
	"repro/l2r"
)

func main() {
	// Offline: a synthetic taxi world; history trains the router, the
	// rest arrives later as a live GPS feed.
	road := roadnet.Generate(roadnet.Tiny(7))
	all := traj.NewSimulator(road, traj.D2Like(7, 500)).Run()
	cut := len(all) * 6 / 10
	history, live := all[:cut], all[cut:]
	router, err := l2r.Build(road, history, l2r.Options{SkipMapMatching: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("router built from %d historical trips; %d trips will arrive as a raw GPS stream\n",
		len(history), len(live))

	// Online: wrap the router in a serving engine and attach the
	// streaming pipeline. OnTrajectory lets us audit every closed,
	// matched trajectory on its way to the batch queue.
	matchCfg := mapmatch.Config{SigmaM: 15}
	var audit sync.Map // vehicle -> matched path
	engine := l2r.NewEngine(router, l2r.ServeOptions{})
	ing := l2r.AttachStream(engine, l2r.StreamConfig{
		Match:    matchCfg,
		MaxBatch: 32,
		OnTrajectory: func(vehicle string, t *traj.Trajectory) {
			audit.Store(vehicle, t.Matched)
		},
	})
	defer engine.Close() // stops the pipeline, final flush included

	// Concurrent traffic: queries keep flowing while the feed streams.
	stop := make(chan struct{})
	var queries atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				t := live[(i*3+w)%len(live)]
				engine.Route(t.Source(), t.Destination())
				queries.Add(1)
			}
		}(w)
	}

	// The feed: every live trip's GPS records, one vehicle per trip,
	// interleaved in timestamp order and replayed at full speed.
	points := l2r.StreamPointsFrom(live)
	n := l2r.ReplayStream(context.Background(), ing, points, 0)
	close(stop)
	wg.Wait()

	st := engine.Stats()
	fmt.Printf("replayed %d points; %d queries answered concurrently\n", n, queries.Load())
	fmt.Printf("stream: %d segments closed (%d too short, dropped), %d trajectories ingested over %d snapshot swaps (generation %d)\n",
		st.Stream.SegmentsClosed, st.Stream.SegmentsDropped,
		st.IngestedTrajectories, st.Ingests, st.SnapshotGeneration)
	if st.Ingests > 0 {
		fmt.Printf("swap amortization: %.1f trajectories per copy-on-write swap (HTTP /ingest pays 1 per request)\n",
			float64(st.IngestedTrajectories)/float64(st.Ingests))
	}

	// Audit the pipeline around the decoder, not the decoder: there is
	// one (Matcher.Match is the online decoder run to completion), so a
	// trip matched in one call decodes as it did in the stream exactly
	// when sessionization handed its decoder every point, in order, and
	// nobody else's.
	whole := mapmatch.NewMatcher(road, spatial.NewIndex(road, 250), matchCfg)
	checked, equal := 0, 0
	for _, t := range live {
		got, ok := audit.Load(fmt.Sprintf("t%d", t.ID))
		if !ok {
			continue
		}
		checked++
		if samePath(got.(roadnet.Path), whole.Match(t.Points())) {
			equal++
		}
	}
	fmt.Printf("audit: %d/%d streamed trajectories decode identically when matched whole, in one call\n", equal, checked)
	if checked == 0 || equal < checked {
		log.Fatalf("audit failed: %d of %d streamed trajectories decode identically", equal, checked)
	}
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
