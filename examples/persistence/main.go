// Persistence: build a router once, save the routing infrastructure to
// an artifact file, load it back in a fresh "deployment" and verify it
// answers identically. The paper reports offline build times of hours
// at full scale (Section VII-C); this is the production workflow that
// amortizes them.
//
//	go run ./examples/persistence
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/roadnet"
	"repro/internal/traj"
	"repro/l2r"
)

func main() {
	// Offline: simulate data and run the full build pipeline.
	road := roadnet.Generate(roadnet.N2Like(11))
	cfg := traj.D2Like(11, 1000)
	trips := traj.NewSimulator(road, cfg).Run()
	train, test := traj.Split(trips, 0.75*cfg.HorizonSec)

	router, err := l2r.Build(road, train, l2r.Options{SkipMapMatching: true})
	if err != nil {
		log.Fatal(err)
	}

	// Save the built system as one self-contained artifact.
	path := filepath.Join(os.TempDir(), "l2r-artifact.bin")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := router.Save(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(path)
	fmt.Printf("saved artifact: %s (%.1f KiB)\n", path, float64(info.Size())/1024)

	// "Deployment": load the artifact — no trajectories, no build.
	g, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer g.Close()
	loaded, err := l2r.Load(g)
	if err != nil {
		log.Fatal(err)
	}
	st := loaded.Stats()
	fmt.Printf("loaded router: %d regions, %d T-edges, %d B-edges\n",
		st.Regions, st.TEdges, st.BEdges)

	// Verify behavioral equivalence on held-out queries.
	same := 0
	n := min(len(test), 50)
	for _, q := range test[:n] {
		a := router.Route(q.Source(), q.Destination())
		b := loaded.Route(q.Source(), q.Destination())
		if pathsEqual(a.Path, b.Path) {
			same++
		}
	}
	fmt.Printf("identical answers on %d/%d held-out queries\n", same, n)
	os.Remove(path)
	if same < n {
		log.Fatalf("the loaded router answers %d of %d held-out queries differently", n-same, n)
	}
}

func pathsEqual(a, b roadnet.Path) bool {
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
