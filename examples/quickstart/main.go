// Quickstart: build a learn-to-route router over a synthetic city and
// answer one routing query.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/roadnet"
	"repro/internal/traj"
	"repro/l2r"
)

func main() {
	// 1. A road network. Generate replaces the paper's OpenStreetMap
	// extract with a deterministic synthetic city.
	road := roadnet.Generate(roadnet.N2Like(7))

	// 2. Trajectories. The simulator stands in for the taxi GPS data:
	// drivers follow latent, district-pair routing preferences.
	cfg := traj.D2Like(7, 1200)
	trips := traj.NewSimulator(road, cfg).Run()
	train, test := traj.Split(trips, 0.75*cfg.HorizonSec)

	// 3. Build the router: clustering, region graph, preference
	// learning and transfer all happen here.
	router, err := l2r.Build(road, train, l2r.Options{SkipMapMatching: true})
	if err != nil {
		log.Fatal(err)
	}
	st := router.Stats()
	fmt.Printf("built from %d trips: %d regions, %d T-edges, %d B-edges\n",
		len(train), st.Regions, st.TEdges, st.BEdges)

	// 4. Route between the endpoints of a held-out trip.
	q := test[0]
	res := router.Route(q.Source(), q.Destination())
	fmt.Printf("query %v -> %v (%s)\n", q.Source(), q.Destination(), res.Category)
	fmt.Printf("recommended path: %d vertices, %.2f km\n",
		len(res.Path), res.Path.Length(road)/1000)
	if res.UsedRegionPath {
		fmt.Printf("traversed regions: %v\n", res.RegionPath)
	}
}
