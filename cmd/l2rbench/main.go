// Command l2rbench is the macro-benchmark harness: it generates a
// deterministic synthetic city (internal/worldgen), builds a router
// over its training trajectories, and replays a Zipf-mixed live
// workload — route lookups, alternative-route queries, preference
// queries and stream-ingest batches — against a serve.Engine, either
// in-process or over loopback HTTP. After the replay (and the timed
// crash-recovery) it runs a maintenance phase: one background
// clone-rebuild-publish cycle (internal/maint) over everything the
// replay ingested, reported as l2rbench_maint: the rebuild's wall time
// and size, and the post-rebuild shadow_eq1_acc_pct /
// shadow_eq4_acc_pct (whose floor internal/maint's
// TestMaintAccuracyFloor enforces).
//
// Where bench_test.go measures isolated operations, l2rbench measures
// the serving system: cache and coalescing under skewed OD traffic,
// copy-on-write snapshot swaps racing queries, WAL appends on the
// ingest path, and crash-recovery replay speed. A quality observer
// shadow-scores every ingested trajectory (sample rate 1, unthrottled)
// so the report also carries model-quality accuracy: the
// l2rbench_quality section's shadow_eq1_acc_pct / shadow_eq4_acc_pct
// say how close served routes stay to the driven evidence. The result
// is a JSON report, {section: {metric: value}}, on stdout or in -out.
// l2rbench is a load generator, not a gate: regressions are judged by
// the benchmark BENCHMARK.json declares (bash benchmark/run.sh), and
// CI runs l2rbench only as a smoke — it exits non-zero when a request
// fails. That two engines fed the same batches, and an engine recovered
// from the WAL after a crash, answer alike at this scale is
// internal/serve's TestCIReplayAndRecoveryAgree.
//
// Usage:
//
//	l2rbench [flags]                 run the workload, print the report
//
// Common invocations:
//
//	l2rbench -scale ci -seed 1 -requests 4000 -out report.json
//	l2rbench -scale city -requests 50000 -qps 2000
//	l2rbench -vertices 250000 -trips 20000 -http
//
// Scales name worldgen presets: bench (~130 vertices, the bench_test
// world), ci (~1.5k), city (~25k), metro (~250k), max (~1M). -vertices
// overrides the preset with an explicit target.
//
// The workload is deterministic in (-scale/-vertices, -seed, -requests,
// -zipf, -mix, -ingest-batch): the world, the OD pool, the request
// schedule and the ingest batches are all derived from the seed.
// Timings of course vary run to run; answers do not.
//
// Preference queries (RoutePref with a no-motorway restriction) run on
// a per-worker fork of the path engine rather than through the serve
// API, which has no preference endpoint; in -http mode their share is
// folded into plain route requests.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/ch"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/roadnet"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/worldgen"
)

type config struct {
	scale       string
	vertices    int
	trips       int
	seed        int64
	requests    int
	qps         float64
	workers     int
	zipfS       float64
	altK        int
	ingestBatch int
	mix         string
	http        bool
	cacheSize   int
	durable     bool
	walSync     string
	ckptEvery   int
	out         string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("l2rbench: ")
	var cfg config
	flag.StringVar(&cfg.scale, "scale", "ci", "world scale: bench|ci|city|metro|max")
	flag.IntVar(&cfg.vertices, "vertices", 0, "explicit vertex target (overrides -scale sizing)")
	flag.IntVar(&cfg.trips, "trips", 0, "override simulated trip count (0 = scale default)")
	flag.Int64Var(&cfg.seed, "seed", 1, "world + workload seed")
	flag.IntVar(&cfg.requests, "requests", 4000, "total requests to replay")
	flag.Float64Var(&cfg.qps, "qps", 0, "target request rate (0 = open throttle)")
	flag.IntVar(&cfg.workers, "c", 0, "concurrent workers (0 = GOMAXPROCS)")
	flag.Float64Var(&cfg.zipfS, "zipf", 1.2, "Zipf exponent for OD popularity skew")
	flag.IntVar(&cfg.altK, "k", 4, "k for alternative-route requests")
	flag.IntVar(&cfg.ingestBatch, "ingest-batch", 8, "trajectories per ingest request")
	flag.StringVar(&cfg.mix, "mix", "route=55,alternatives=20,pref=15,ingest=10",
		"workload mix as kind=weight pairs")
	flag.BoolVar(&cfg.http, "http", false, "drive the engine over loopback HTTP instead of in-process")
	flag.IntVar(&cfg.cacheSize, "cache", 0, "route cache entries (0 = serve default, negative disables)")
	flag.BoolVar(&cfg.durable, "durable", true, "attach an ephemeral WAL and measure recovery replay")
	flag.StringVar(&cfg.walSync, "wal-sync", "none", "WAL fsync policy: none|always")
	flag.IntVar(&cfg.ckptEvery, "checkpoint-every", -1,
		"trajectories between auto checkpoints (negative disables, so recovery replays the full log)")
	flag.StringVar(&cfg.out, "out", "", "write the JSON report here (default stdout)")
	flag.Parse()

	if err := run(cfg); err != nil {
		log.Fatal(err)
	}
}

func run(cfg config) error {
	mix, err := parseMix(cfg.mix)
	if err != nil {
		return err
	}
	if cfg.http {
		// The HTTP API has no preference endpoint; serve that share as
		// plain route traffic.
		mix[opRoute] += mix[opPref]
		mix[opPref] = 0
	}

	spec, err := resolveSpec(cfg)
	if err != nil {
		return err
	}
	t0 := time.Now()
	w := worldgen.Build(spec)
	log.Printf("world %s seed %d: %d vertices, %d edges, %d trips (%d train / %d test), %d repair links [%v]",
		spec.Name, spec.Seed, w.Road.NumVertices(), w.Road.NumEdges(),
		len(w.All), len(w.Train), len(w.Test), w.RepairLinks, time.Since(t0).Round(time.Millisecond))

	t0 = time.Now()
	r, err := core.Build(w.Road, w.Train, core.Options{SkipMapMatching: true})
	if err != nil {
		return fmt.Errorf("router build: %w", err)
	}
	st := r.Stats()
	ms := func(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
	log.Printf("router built [%v]: cluster %v, learn %v, transfer %v, materialize %v, CH %v",
		ms(time.Since(t0)), ms(st.ClusterTime), ms(st.LearnTime), ms(st.TransferTime), ms(st.MaterializeTime), ms(st.CHBuildTime+st.CHCustomizeTime))

	qs := eval.QueriesFrom(w.Road, r, w.Test)
	if len(qs) < 2 {
		return fmt.Errorf("OD pool too small (%d queries); raise -trips or -scale", len(qs))
	}

	h := &harness{cfg: cfg, world: w, router: r}
	h.schedule = buildSchedule(qs, w.Test, cfg, mix)
	return runBench(h)
}

func resolveSpec(cfg config) (worldgen.Spec, error) {
	var spec worldgen.Spec
	if cfg.vertices > 0 {
		spec = worldgen.ForVertices(cfg.vertices, cfg.seed)
	} else {
		var err error
		spec, err = worldgen.ForScale(cfg.scale, cfg.seed)
		if err != nil {
			return spec, err
		}
	}
	if cfg.trips > 0 {
		spec.Sim.Trips = cfg.trips
	}
	return spec, nil
}

func (c config) serveOptions(walDir string) serve.Options {
	opt := serve.Options{
		CacheSize:       c.cacheSize,
		WALDir:          walDir,
		CheckpointEvery: c.ckptEvery,
		WALSync:         wal.SyncNone,
	}
	if c.walSync == "always" {
		opt.WALSync = wal.SyncAlways
	}
	return opt
}

// prefEngine builds the path engine that serves opPref requests; each
// worker Forks it so searches never share scratch state.
func (h *harness) prefEngine() route.PathEngine {
	return route.BuildCHEngine(h.world.Road, roadnet.TT, ch.Config{})
}

func (c config) effectiveWorkers() int {
	if c.workers > 0 {
		return c.workers
	}
	return runtime.GOMAXPROCS(0)
}

func writeReport(out string, data []byte) error {
	if out == "" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}
