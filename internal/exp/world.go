package exp

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// Scale selects experiment sizing. Small keeps everything laptop-quick
// (seconds); Full uses larger networks and trajectory sets (minutes) for
// the full-scale numbers ROADMAP.md item 1 tabulates.
type Scale int

// Scales.
const (
	Small Scale = iota
	Full
)

// Config parameterizes world construction.
type Config struct {
	Seed  int64
	Scale Scale
	// UseMapMatching runs the full GPS → path pipeline during the
	// router build. Small-scale runs skip it by default to keep the
	// bench suite fast; Full enables it.
	UseMapMatching bool
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
}

// World bundles one dataset analogue: road network, trajectory set,
// train/test split, evaluation buckets and a lazily built router.
type World struct {
	Name      string
	Road      *roadnet.Graph
	All       []*traj.Trajectory
	Train     []*traj.Trajectory
	Test      []*traj.Trajectory
	BucketsKm []float64
	Sim       *traj.Simulator

	cfg  Config
	opts core.Options

	once   sync.Once
	router *core.Router
	berr   error
}

// NewD1 creates the Denmark-like world (high-frequency GPS, long trips,
// highway structure). Paper analogues: network N1, dataset D1, distance
// buckets (0,10],(10,50],(50,100],(100,500] km — scaled to the smaller
// synthetic map as (0,5],(5,15],(15,30],(30,100].
func NewD1(cfg Config) *World {
	trips := 1200
	if cfg.Scale == Full {
		trips = 6000
	}
	// The split keeps 18 of 24 months for training.
	return NewCustom("D1", roadnet.Generate(roadnet.N1Like(cfg.Seed)), traj.D1Like(cfg.Seed+1, trips),
		[]float64{5, 15, 30, 100}, cfg)
}

// NewD2 creates the Chengdu-like world (low-frequency taxi GPS, short
// urban trips). Paper buckets (0,2],(2,5],(5,10],(10,35] km map directly.
func NewD2(cfg Config) *World {
	trips := 1500
	if cfg.Scale == Full {
		trips = 8000
	}
	// The split keeps 21 of 28 days for training.
	return NewCustom("D2", roadnet.Generate(roadnet.N2Like(cfg.Seed)), traj.D2Like(cfg.Seed+1, trips),
		[]float64{2, 5, 10, 35}, cfg)
}

// NewCustom assembles a world from explicit parts; tests and the bench
// suite use it to run the experiment machinery over small custom maps.
func NewCustom(name string, road *roadnet.Graph, simCfg traj.SimConfig, bucketsKm []float64, cfg Config) *World {
	sim := traj.NewSimulator(road, simCfg)
	all := sim.Run()
	train, test := traj.Split(all, 0.75*simCfg.HorizonSec)
	return NewPrebuilt(name, road, sim, all, train, test, bucketsKm, cfg)
}

// NewPrebuilt wraps an externally generated world — e.g. one from
// internal/worldgen, whose Build already ran the simulator and the
// train/test split — without re-simulating anything.
func NewPrebuilt(name string, road *roadnet.Graph, sim *traj.Simulator, all, train, test []*traj.Trajectory, bucketsKm []float64, cfg Config) *World {
	return &World{
		Name: name, Road: road, All: all, Train: train, Test: test,
		BucketsKm: bucketsKm,
		Sim:       sim,
		cfg:       cfg,
		opts: core.Options{
			SkipMapMatching: !cfg.UseMapMatching,
			Workers:         cfg.Workers,
		},
	}
}

// Router builds (once) and returns the world's L2R router.
func (w *World) Router() (*core.Router, error) {
	w.once.Do(func() {
		w.router, w.berr = core.Build(w.Road, w.Train, w.opts)
	})
	return w.router, w.berr
}

// MustRouter is Router for contexts where failure is fatal anyway.
func (w *World) MustRouter() *core.Router {
	r, err := w.Router()
	if err != nil {
		panic(fmt.Sprintf("exp: building router for %s: %v", w.Name, err))
	}
	return r
}

// Header renders a section header for experiment output.
func Header(title string) string {
	bar := strings.Repeat("=", len(title))
	return fmt.Sprintf("%s\n%s\n", title, bar)
}
