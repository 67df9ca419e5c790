// Command l2rartifact manages persisted L2R routing artifacts: the
// production workflow of building the routing infrastructure once,
// shipping it as a file, and serving or updating it later.
//
// Usage:
//
//	l2rartifact build -out router.l2r [-net n1|n2|tiny] [-trips N] [-seed N] [-match]
//	l2rartifact inspect -in router.l2r
//	l2rartifact route -in router.l2r -from V -to V
//	l2rartifact ingest -in router.l2r -out updated.l2r [-trips N] [-seed N]
//
// The ingest subcommand simulates a fresh day of traffic against the
// artifact's road network and folds it in incrementally (no rebuild),
// demonstrating the paper's "real-time region graph updates" future
// work.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/roadnet"
	"repro/internal/traj"
	"repro/l2r"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "build":
		cmdBuild(os.Args[2:])
	case "inspect":
		cmdInspect(os.Args[2:])
	case "route":
		cmdRoute(os.Args[2:])
	case "ingest":
		cmdIngest(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: l2rartifact build|inspect|route|ingest [flags]")
	os.Exit(2)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "l2rartifact: "+format+"\n", args...)
	os.Exit(1)
}

func cmdBuild(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	out := fs.String("out", "router.l2r", "artifact output path")
	network := fs.String("net", "n2", "network config: n1, n2 or tiny")
	trips := fs.Int("trips", 2000, "number of training trajectories")
	seed := fs.Int64("seed", 1, "world seed")
	match := fs.Bool("match", false, "run the GPS map-matching pipeline")
	name := fs.String("name", "", "world name stamped into the artifact metadata (tenant name in fleet serving)")
	fs.Parse(args)

	g, cfg, err := traj.PresetWorld(*network, *seed, *seed+1, *trips)
	if err != nil {
		fatalf("%v", err)
	}
	ts := traj.NewSimulator(g, cfg).Run()
	start := time.Now()
	r, err := l2r.Build(g, ts, l2r.Options{SkipMapMatching: !*match})
	if err != nil {
		fatalf("build: %v", err)
	}
	if *name != "" {
		r.SetName(*name)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatalf("create %s: %v", *out, err)
	}
	defer f.Close()
	if err := r.Save(f); err != nil {
		fatalf("save: %v", err)
	}
	st := r.Stats()
	fmt.Printf("built in %s: %d regions, %d T-edges, %d B-edges -> %s\n",
		time.Since(start).Round(time.Millisecond), st.Regions, st.TEdges, st.BEdges, *out)
}

func cmdInspect(args []string) {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	in := fs.String("in", "router.l2r", "artifact path")
	fs.Parse(args)

	r := load(*in)
	st := r.Stats()
	rg := r.RegionGraph()
	meta := r.Meta()
	fmt.Printf("artifact %s\n", *in)
	if meta.Name != "" {
		fmt.Printf("  name:         %s\n", meta.Name)
	}
	fmt.Printf("  generation:   %d (saved %s)\n", meta.Generation,
		time.Unix(0, meta.SavedUnixNano).Format(time.RFC3339))
	fmt.Printf("  built with:   clustering %s\n", meta.Build.ClusterMethod)
	fmt.Printf("  road network: %d vertices, %d edges\n", r.Road().NumVertices(), r.Road().NumEdges())
	fmt.Printf("  regions:      %d\n", st.Regions)
	fmt.Printf("  T-edges:      %d\n", rg.TEdgeCount())
	fmt.Printf("  B-edges:      %d\n", rg.BEdgeCount())
	fmt.Printf("  learned:      %d preferences\n", st.LearnedPrefs)
	fmt.Printf("  transferred:  %d (null: %d)\n", st.TransferredOK, st.NullBEdges)
	fmt.Printf("  offline time: match %s, cluster %s, learn %s, transfer %s, materialize %s\n",
		st.MatchTime.Round(time.Millisecond), st.ClusterTime.Round(time.Millisecond),
		st.LearnTime.Round(time.Millisecond), st.TransferTime.Round(time.Millisecond),
		st.MaterializeTime.Round(time.Millisecond))
}

func cmdRoute(args []string) {
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	in := fs.String("in", "router.l2r", "artifact path")
	from := fs.Int("from", 0, "source vertex ID")
	to := fs.Int("to", 1, "destination vertex ID")
	fs.Parse(args)

	r := load(*in)
	n := r.Road().NumVertices()
	if *from < 0 || *from >= n || *to < 0 || *to >= n {
		fatalf("vertex IDs must be in [0,%d)", n)
	}
	res := r.Route(roadnet.VertexID(*from), roadnet.VertexID(*to))
	fmt.Printf("query %d -> %d (%s)\n", *from, *to, res.Category)
	if len(res.Path) == 0 {
		fmt.Println("no path")
		return
	}
	fmt.Printf("path: %d vertices, %.2f km, %.1f min\n",
		len(res.Path), res.Path.Length(r.Road())/1000,
		res.Path.Cost(r.Road(), roadnet.TT)/60)
	if res.UsedRegionPath {
		fmt.Printf("region path: %v\n", res.RegionPath)
	}
}

func cmdIngest(args []string) {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	in := fs.String("in", "router.l2r", "artifact path")
	out := fs.String("out", "router-updated.l2r", "updated artifact path")
	trips := fs.Int("trips", 200, "number of new trajectories to simulate")
	seed := fs.Int64("seed", 42, "traffic seed")
	fs.Parse(args)

	r := load(*in)
	cfg := traj.D2Like(*seed, *trips)
	ts := traj.NewSimulator(r.Road(), cfg).Run()
	st := r.Ingest(ts, l2r.IngestOptions{SkipMapMatching: true})
	fmt.Printf("ingested %d paths in %s: %d edges touched, %d upgraded, %d new, staleness %.1f%%\n",
		st.Paths, st.Elapsed.Round(time.Millisecond), len(st.TouchedEdges),
		st.UpgradedEdges, st.NewEdges, 100*st.StalenessRatio())
	if st.RebuildRecommended {
		fmt.Println("note: staleness above threshold; full rebuild recommended")
	}
	f, err := os.Create(*out)
	if err != nil {
		fatalf("create %s: %v", *out, err)
	}
	defer f.Close()
	if err := r.Save(f); err != nil {
		fatalf("save: %v", err)
	}
	fmt.Printf("updated artifact -> %s\n", *out)
}

func load(path string) *l2r.Router {
	f, err := os.Open(path)
	if err != nil {
		fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	r, err := l2r.Load(f)
	if err != nil {
		fatalf("load %s: %v", path, err)
	}
	return r
}
