package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/roadnet"
	"repro/internal/serve"
	"repro/internal/traj"
	"repro/internal/wal"
	"repro/internal/worldgen"
)

// worldSeed pins the synthetic city. --seed drives the OD pool and
// every op list but not the city: the driver compares runs across
// seeds, and a per-seed city would put the difference between cities
// (route length, Eq. 1 accuracy, build time) into every spread.
const worldSeed = 1

// od is one origin-destination query.
type od struct{ s, d roadnet.VertexID }

// world is what set-up produces and every pass reuses.
type world struct {
	road *roadnet.Graph
	// artifact is the built router as Router.Save wrote it; each pass
	// and each restart loads a fresh router from these bytes.
	artifact []byte
	build    core.Stats
	setupS   float64 // the whole set-up that produced this world
	genS     float64 // worldgen.Build alone
	// heldOut are the test-split trips with a path, in horizon order:
	// the Eq. 1 set, and the source of the fixed ingest batches.
	heldOut []*traj.Trajectory
	batches [][]*traj.Trajectory
	pool    []od
	audit   []od
}

var buildOptions = core.Options{SkipMapMatching: true, PathBackend: core.BackendCH}

// serveOptions is the engine configuration of one workload on one WAL
// directory. SyncNone: fsync on the sandbox's shared disk is device
// noise, not this system's cost.
func (s spec) serveOptions(dir string) serve.Options {
	o := serve.Options{
		PathBackend:     core.BackendCH,
		WALDir:          dir,
		CheckpointEvery: s.ckptEvery,
		WALSync:         wal.SyncNone,
	}
	if s.cacheOff {
		o.CacheSize = -1
	}
	return o
}

// env is where and at what size a run happens. scratch receives WAL
// directories and trace files: benchmark/out inside the checkout,
// listed in .gitignore.
type env struct {
	scale   string // worldgen scale name
	scratch string
}

func (e env) tempDir(pattern string) (string, error) {
	root := filepath.Join(e.scratch, "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, pattern)
}

// setUp is the offline build a deployment pays before it can serve:
// generate the city, build the router, save the artifact, start a
// durable engine on it.
func (e env) setUp() (*world, error) {
	t0 := time.Now()
	w := worldgen.Build(worldgen.MustScale(e.scale, worldSeed))
	genS := time.Since(t0).Seconds()
	r, err := core.Build(w.Road, w.Train, buildOptions)
	if err != nil {
		return nil, fmt.Errorf("core.Build: %w", err)
	}
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		return nil, fmt.Errorf("Router.Save: %w", err)
	}
	dir, err := e.tempDir("setup-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	eng, err := serve.NewDurableEngine(r, spec{ckptEvery: -1}.serveOptions(dir))
	if err != nil {
		return nil, fmt.Errorf("NewDurableEngine: %w", err)
	}
	ready := eng.Ready()
	elapsed := time.Since(t0).Seconds()
	if err := eng.Close(); err != nil {
		return nil, err
	}
	if !ready {
		return nil, fmt.Errorf("engine not ready after a synchronous start")
	}

	wd := &world{road: w.Road, artifact: buf.Bytes(), build: r.Stats(), setupS: elapsed, genS: genS}
	for _, t := range w.Test {
		if len(t.Truth) >= 2 {
			wd.heldOut = append(wd.heldOut, t)
		}
	}
	for i := 0; i+batchSize <= len(wd.heldOut); i += batchSize {
		wd.batches = append(wd.batches, wd.heldOut[i:i+batchSize])
	}
	return wd, nil
}

// seedInputs derives the OD pool and the restart-audit ODs from the
// seed: poolSize uniform vertex pairs plus the held-out trips' own
// endpoints. worldgen guarantees a strongly connected road network, so
// every pair has a route and no operation is expected to fail.
func (wd *world) seedInputs(seed int64) {
	rng := rand.New(rand.NewSource(subSeed(seed, 1)))
	n := wd.road.NumVertices()
	wd.pool = make([]od, 0, poolSize+len(wd.heldOut))
	for len(wd.pool) < poolSize {
		s, d := rng.Intn(n), rng.Intn(n)
		if s != d {
			wd.pool = append(wd.pool, od{roadnet.VertexID(s), roadnet.VertexID(d)})
		}
	}
	for _, t := range wd.heldOut {
		if t.Source() != t.Destination() {
			wd.pool = append(wd.pool, od{t.Source(), t.Destination()})
		}
	}
	// Half held-out endpoints (the ODs ingestion changes the answer
	// for), half pool pairs.
	wd.audit = wd.audit[:0]
	for i := poolSize; len(wd.audit) < auditODs/2 && i < len(wd.pool); i++ {
		wd.audit = append(wd.audit, wd.pool[i])
	}
	for i := 0; len(wd.audit) < auditODs; i++ {
		wd.audit = append(wd.audit, wd.pool[i])
	}
}

// eq1Accuracy is the paper's Eq. 1 accuracy, in percent, of r's routes
// over the held-out trips.
func (wd *world) eq1Accuracy(r *core.Router) float64 {
	total := 0.0
	for _, t := range wd.heldOut {
		eq1, _ := eval.ScorePath(wd.road, t.Truth, r.Route(t.Source(), t.Destination()).Path)
		total += eq1
	}
	return 100 * total / float64(len(wd.heldOut))
}
