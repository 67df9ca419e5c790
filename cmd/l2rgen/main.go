// Command l2rgen generates a synthetic road network and trajectory set
// and writes them to disk in the repository's text formats, so that
// other tools (and curious users) can inspect the data the experiments
// run on.
//
// Usage:
//
//	l2rgen -out dir [-net n1|n2|tiny] [-trips N] [-seed N] [-profile d1|d2]
//
// It writes three files into the output directory:
//
//	network.tsv       vertices and edges of the road network
//	trajectories.tsv  GPS records, one per line, grouped by trip
//	summary.txt       counts and Table II-style distance statistics
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/roadnet"
	"repro/internal/traj"
)

func main() {
	out := flag.String("out", "l2rdata", "output directory")
	network := flag.String("net", "n2", "network config: n1, n2 or tiny")
	trips := flag.Int("trips", 2000, "number of trajectories")
	seed := flag.Int64("seed", 1, "generator seed")
	profile := flag.String("profile", "d2", "trajectory profile: d1 (1 Hz) or d2 (taxi)")
	flag.Parse()

	// Only the network: -profile below picks the trajectory preset.
	g, _, err := traj.PresetWorld(*network, *seed, 0, 0)
	if err != nil {
		fatalf("%v", err)
	}
	if err := roadnet.Validate(g); err != nil {
		fatalf("generated network invalid: %v", err)
	}

	var cfg traj.SimConfig
	switch *profile {
	case "d1":
		cfg = traj.D1Like(*seed+1, *trips)
	case "d2":
		cfg = traj.D2Like(*seed+1, *trips)
	default:
		fatalf("unknown profile %q", *profile)
	}
	trajectories := traj.NewSimulator(g, cfg).Run()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatalf("mkdir: %v", err)
	}
	if err := writeNetwork(filepath.Join(*out, "network.tsv"), g); err != nil {
		fatalf("write network: %v", err)
	}
	if err := writeTrajectories(filepath.Join(*out, "trajectories.tsv"), trajectories); err != nil {
		fatalf("write trajectories: %v", err)
	}
	if err := writeSummary(filepath.Join(*out, "summary.txt"), g, trajectories); err != nil {
		fatalf("write summary: %v", err)
	}
	fmt.Printf("wrote %d vertices, %d edges, %d trajectories to %s\n",
		g.NumVertices(), g.NumEdges(), len(trajectories), *out)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func writeNetwork(path string, g *roadnet.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# vertices: id\tx\ty\n")
	for v := roadnet.VertexID(0); int(v) < g.NumVertices(); v++ {
		p := g.Point(v)
		fmt.Fprintf(w, "V\t%d\t%.2f\t%.2f\n", v, p.X, p.Y)
	}
	fmt.Fprintf(w, "# edges: from\tto\tlength_m\ttt_s\tfuel_l\ttype\n")
	for e := roadnet.EdgeID(0); int(e) < g.NumEdges(); e++ {
		ed := g.Edge(e)
		fmt.Fprintf(w, "E\t%d\t%d\t%.2f\t%.2f\t%.4f\t%s\n",
			ed.From, ed.To, ed.Length, ed.TravelTime, ed.Fuel, ed.Type)
	}
	return w.Flush()
}

func writeTrajectories(path string, ts []*traj.Trajectory) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# T: id\tdriver\tdepart_s\tpeak\trecords\n")
	fmt.Fprintf(w, "# R: t_s\tx\ty\n")
	for _, t := range ts {
		fmt.Fprintf(w, "T\t%d\t%d\t%.1f\t%t\t%d\n", t.ID, t.Driver, t.Depart, t.Peak, len(t.Records))
		for _, rec := range t.Records {
			fmt.Fprintf(w, "R\t%.1f\t%.2f\t%.2f\n", rec.T, rec.P.X, rec.P.Y)
		}
	}
	return w.Flush()
}

func writeSummary(path string, g *roadnet.Graph, ts []*traj.Trajectory) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "vertices: %d\nedges: %d\ntrajectories: %d\nmean distance: %.2f km\n",
		g.NumVertices(), g.NumEdges(), len(ts), traj.MeanDistanceKm(g, ts))
	for _, b := range traj.DistanceHistogram(g, ts, []float64{2, 5, 10, 50}) {
		fmt.Fprintf(f, "distance %s: %d (%.1f%%)\n", b.Label(), b.Count, b.Percent)
	}
	return nil
}
