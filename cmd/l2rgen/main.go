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
//	network.tsv       the road network, roadnet.WriteTSV's format (roadnet.ParseTSV reads it)
//	trajectories.tsv  GPS records grouped by trip, traj.WriteTSV's format
//	summary.txt       counts and Table II-style distance statistics
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
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
	for _, f := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"network.tsv", func(w io.Writer) error { return roadnet.WriteTSV(w, g) }},
		{"trajectories.tsv", func(w io.Writer) error { return traj.WriteTSV(w, trajectories) }},
		{"summary.txt", func(w io.Writer) error { return writeSummary(w, g, trajectories) }},
	} {
		if err := writeFile(filepath.Join(*out, f.name), f.write); err != nil {
			fatalf("write %s: %v", f.name, err)
		}
	}
	fmt.Printf("wrote %d vertices, %d edges, %d trajectories to %s\n",
		g.NumVertices(), g.NumEdges(), len(trajectories), *out)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeSummary(w io.Writer, g *roadnet.Graph, ts []*traj.Trajectory) error {
	// A bufio.Writer's errors stick, so Flush reports any Fprintf's.
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "vertices: %d\nedges: %d\ntrajectories: %d\nmean distance: %.2f km\n",
		g.NumVertices(), g.NumEdges(), len(ts), traj.MeanDistanceKm(g, ts))
	for _, b := range traj.DistanceHistogram(g, ts, []float64{2, 5, 10, 50}) {
		fmt.Fprintf(bw, "distance %s: %d (%.1f%%)\n", b.Label(), b.Count, b.Percent)
	}
	return bw.Flush()
}
