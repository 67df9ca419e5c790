// Command l2route builds an L2R router over a synthetic world and
// answers routing queries from the command line, printing the L2R path
// next to the shortest and fastest baselines so the differences are
// visible.
//
// Usage:
//
//	l2route [-net n1|n2|tiny] [-trips N] [-seed N] [-match] [-n queries] [-k alternatives]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/baseline"
	"repro/internal/pref"
	"repro/internal/traj"
	"repro/l2r"
)

func main() {
	network := flag.String("net", "n2", "network config: n1, n2 or tiny")
	trips := flag.Int("trips", 1500, "number of training trajectories")
	seed := flag.Int64("seed", 1, "world seed")
	match := flag.Bool("match", false, "exercise the GPS map-matching pipeline")
	n := flag.Int("n", 5, "number of demo queries to answer")
	k := flag.Int("k", 1, "alternatives per query (RouteK)")
	flag.Parse()

	g, cfg, err := traj.PresetWorld(*network, *seed, *seed+1, *trips)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	all := traj.NewSimulator(g, cfg).Run()
	train, test := traj.Split(all, 0.75*cfg.HorizonSec)
	fmt.Printf("world: %d vertices, %d edges, %d train / %d test trips\n",
		g.NumVertices(), g.NumEdges(), len(train), len(test))

	router, err := l2r.Build(g, train, l2r.Options{SkipMapMatching: !*match})
	if err != nil {
		fmt.Fprintf(os.Stderr, "build: %v\n", err)
		os.Exit(1)
	}
	st := router.Stats()
	fmt.Printf("built: %d regions, %d T-edges, %d B-edges (cluster %v, learn %v, transfer %v)\n\n",
		st.Regions, st.TEdges, st.BEdges, st.ClusterTime, st.LearnTime, st.TransferTime)

	sh := baseline.NewShortest(g)
	fa := baseline.NewFastest(g)
	for i, tr := range test {
		if i >= *n {
			break
		}
		s, d := tr.Source(), tr.Destination()
		res := router.Route(s, d)
		sp := sh.Route(baseline.Query{S: s, D: d})
		fp := fa.Route(baseline.Query{S: s, D: d})
		fmt.Printf("query %d: %d -> %d  (%.1f km, %s)\n", i, s, d, tr.Truth.Length(g)/1000, res.Category)
		fmt.Printf("  ground truth: %3d vertices\n", len(tr.Truth))
		fmt.Printf("  L2R:      %3d vertices, sim %.2f (region path %v)\n",
			len(res.Path), pref.SimEq1(g, tr.Truth, res.Path), res.RegionPath)
		fmt.Printf("  Shortest: %3d vertices, sim %.2f\n", len(sp), pref.SimEq1(g, tr.Truth, sp))
		fmt.Printf("  Fastest:  %3d vertices, sim %.2f\n", len(fp), pref.SimEq1(g, tr.Truth, fp))
		if *k > 1 {
			for j, alt := range router.RouteK(s, d, *k) {
				if j == 0 {
					continue // identical to the L2R line above
				}
				fmt.Printf("  alt %d:    %3d vertices, sim %.2f\n",
					j, len(alt.Path), pref.SimEq1(g, tr.Truth, alt.Path))
			}
		}
	}
}
