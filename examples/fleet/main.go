// Fleet: multi-tenant serving with hot artifact reloading. The paper
// builds one region graph per city's trajectory set, so a production
// deployment runs many routers — one per city — behind one front-end.
// This example builds two city worlds, ships them as artifacts into a
// directory, serves both tenants concurrently from a Fleet, then
// rebuilds one city's artifact (ingesting fresh trajectories) and
// drops it into the directory: the watcher hot-swaps it into the live
// fleet mid-traffic, without dropping a single in-flight query.
//
//	go run ./examples/fleet
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/roadnet"
	"repro/internal/traj"
	"repro/l2r"
)

// city is one tenant's world: a road network plus its trajectory
// stream, split into a training set and a live remainder.
type city struct {
	name  string
	road  *roadnet.Graph
	train []*traj.Trajectory
	live  []*traj.Trajectory
}

func buildCity(name string, seed int64, trips int) city {
	road := roadnet.Generate(roadnet.Tiny(seed))
	cfg := traj.D2Like(seed, trips)
	all := traj.NewSimulator(road, cfg).Run()
	cut := len(all) * 6 / 10
	return city{name: name, road: road, train: all[:cut], live: all[cut:]}
}

// ship builds a router for c and saves it as dir/<name>.l2r.
func ship(c city, ts []*traj.Trajectory, dir string) error {
	router, err := l2r.Build(c.road, ts, l2r.Options{SkipMapMatching: true})
	if err != nil {
		return fmt.Errorf("building %s: %w", c.name, err)
	}
	router.SetName(c.name)
	f, err := os.Create(filepath.Join(dir, c.name+l2r.ArtifactExt))
	if err != nil {
		return err
	}
	defer f.Close()
	return router.Save(f)
}

func main() {
	dir, err := os.MkdirTemp("", "l2r-fleet")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Offline: build each city's router and ship it as an artifact —
	// exactly what `l2rartifact build` + a file copy would do.
	cities := []city{buildCity("acity", 3, 400), buildCity("bcity", 4, 400)}
	for _, c := range cities {
		if err := ship(c, c.train, dir); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("shipped %d artifacts to %s\n", len(cities), dir)

	// Online: one fleet, one tenant per artifact. This is what
	// `l2rserve -artifact-dir` does, minus the HTTP listener.
	fleet := l2r.NewFleet(l2r.ServeOptions{CacheSize: 4096})
	watcher := l2r.NewFleetWatcher(fleet, dir)
	watcher.Logf = log.Printf
	if loaded, _, failed := watcher.Scan(); loaded != len(cities) || failed != 0 {
		log.Fatalf("loaded %d tenants (%d failed)", loaded, failed)
	}
	for _, name := range fleet.Names() {
		e, _ := fleet.Get(name)
		meta := e.Snapshot().Meta()
		fmt.Printf("tenant %q: %d vertices, artifact generation %d\n",
			name, e.Snapshot().Road().NumVertices(), meta.Generation)
	}

	// Serve both tenants concurrently while acity's artifact is
	// rebuilt offline and hot-swapped in.
	var wg sync.WaitGroup
	swapped := make(chan struct{})
	for _, c := range cities {
		wg.Add(1)
		go func(c city) {
			defer wg.Done()
			e, _ := fleet.Get(c.name)
			for i := 0; i < 4000; i++ {
				t := c.live[i%len(c.live)]
				res, _ := e.Route(t.Source(), t.Destination())
				if len(res.Path) >= 2 && !res.Path.Valid(c.road) {
					log.Fatalf("tenant %s returned an invalid path mid-swap", c.name)
				}
				if i == 2000 && c.name == "acity" {
					<-swapped // from here on, acity serves the rebuilt artifact
				}
			}
		}(c)
	}

	// "Offline rebuild": retrain acity on everything it has seen, save
	// over the artifact file, and let one watcher scan pick it up.
	a := cities[0]
	if err := ship(a, append(append([]*traj.Trajectory{}, a.train...), a.live...), dir); err != nil {
		log.Fatal(err)
	}
	engA, _ := fleet.Get("acity")
	genBefore := engA.Generation()
	if _, s, f := watcher.Scan(); s != 1 || f != 0 {
		log.Fatalf("hot reload scan: swapped=%d failed=%d", s, f)
	}
	fmt.Printf("hot-swapped acity mid-traffic: snapshot generation %d -> %d\n",
		genBefore, engA.Generation())
	close(swapped)
	wg.Wait()

	st := fleet.Stats()
	fmt.Printf("\nfleet served %d queries across %d tenants (%.1f%% cache hits, %d coalesced)\n",
		st.Queries, st.Tenants, 100*st.CacheHitRate, st.CoalescedQueries)
	for name, ts := range st.PerTenant {
		fmt.Printf("  %-6s %6d queries, snapshot generation %d\n",
			name, ts.Queries, ts.SnapshotGeneration)
	}
}
