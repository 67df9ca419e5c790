package core

import (
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ch"
	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/mapmatch"
	"repro/internal/pref"
	"repro/internal/region"
	"repro/internal/roadnet"
	"repro/internal/route"
	"repro/internal/traj"
	"repro/internal/transfer"
)

// PathBackend and BackendCH are read by nothing: every Router runs on
// its contraction hierarchy. They stay only while the benchmark module
// compiles against them, and go with its next change (ROADMAP.md item
// 8), as Options.PathBackend does.
type PathBackend uint8

// BackendCH names the one backend; see PathBackend.
const BackendCH PathBackend = 1

// Options configures the offline pipeline. The rest of the pipeline
// runs at fixed settings: the parameter-free modularity clustering
// (cluster.Options{}), transfer.DefaultConfig() (amr = 0.7), the
// matcher's defaults (mapmatch.Config{}), indexCellM and minConfidence.
type Options struct {
	// Region tunes region-graph construction.
	Region region.Options
	// SkipMapMatching trusts trajectory ground-truth paths instead of
	// map matching raw GPS records. Tests and some experiments use it to
	// decouple pipeline stages; the default (false) exercises the full
	// path from raw GPS records to routing.
	SkipMapMatching bool
	// LearnMaxPaths caps the per-T-edge path sample during preference
	// learning; 0 keeps the learner default.
	LearnMaxPaths int
	// Workers bounds pipeline parallelism; 0 means GOMAXPROCS.
	Workers int
	// PathBackend is ignored; see the type.
	PathBackend PathBackend
}

const (
	// indexCellM is the map matcher's spatial-index cell size.
	indexCellM = 300
	// minConfidence is the training similarity a learned preference
	// must reach to be applied at query time and used as a transfer
	// label; below it the fastest-path behaviour stands in.
	minConfidence = 0.7
)

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Stats records offline pipeline measurements; the paper reports the
// per-phase offline processing times in Section VII-C.
type Stats struct {
	Trajectories   int
	MatchedOK      int
	Regions        int
	TEdges, BEdges int
	LearnedPrefs   int
	TransferredOK  int
	NullBEdges     int

	MatchTime       time.Duration
	ClusterTime     time.Duration
	LearnTime       time.Duration
	TransferTime    time.Duration
	MaterializeTime time.Duration
	// CHBuildTime and CHShortcuts record the metric-independent
	// topology contraction at Build (Load restores them as saved);
	// CHCustomizeTime and CHMetrics record the last PrepareMetrics pass
	// (how long re-customizing the preference metrics took, and how many
	// metrics it added — customized, or adopted from a learning pass).
	CHBuildTime     time.Duration
	CHShortcuts     int
	CHCustomizeTime time.Duration
	CHMetrics       int
}

// Router is a built L2R system, ready to answer routing queries.
// Building happens once offline; Route is comparatively cheap.
//
// Concurrency: a single Router is not safe for concurrent use — every
// query method reuses the per-query state of its route.CHEngine and
// its regionScratch. The query methods (Route, RouteK, Categorize, and
// the read-only accessors) mutate nothing beyond that state, so Clones
// answer queries concurrently over the shared built state. Everything
// that writes built state goes through an IngestClone; the package
// documentation ("Concurrency and cloning") states the contract.
type Router struct {
	road  *roadnet.Graph
	rg    *region.Graph
	eng   *route.CHEngine
	idx   *lazyIndex
	stats Stats
	meta  ArtifactMeta
	// roadID is the road network's identity when hasRoadID says it is
	// known (RoadIdentity). It describes the immutable road, so clones
	// share it.
	roadID    uint64
	hasRoadID bool
	// regionPrefs maps region ID -> preference learned from the
	// region's inner paths; used for same-region queries with no exact
	// inner-path match.
	regionPrefs map[int]pref.Result
	// scratch is this handle's region-search state, allocated on its
	// first query. Query state like eng's: every clone constructor must
	// drop it, or two handles would share one search.
	scratch *regionScratch
	// learners pools the write side's learners over forks of the engine
	// setEngine installed, all sharing the lineage's memo; every clone
	// shares it (package doc).
	learners *sync.Pool
	// saveLen is the payload length of the lineage's last Load or Save,
	// which sizes the next Save's buffer (0: none yet). Clones share it,
	// as they share learners.
	saveLen *atomic.Int64
}

// writeLearner is a pooled learner and its T-edge path-set buffer.
type writeLearner struct {
	*pref.Learner
	paths []roadnet.Path
}

// setEngine installs eng and starts its learner pool, whose learners
// share one empty memo: a router given another engine never reuses a
// learner, or a search result, of the old one.
func (r *Router) setEngine(eng *route.CHEngine) {
	r.eng, r.saveLen = eng, new(atomic.Int64)
	memo := pref.NewMemo(eng.Graph(), pref.CandidateSlaves())
	r.learners = &sync.Pool{New: func() any {
		l := pref.NewLearnerOn(eng.Fork())
		l.Memo = memo
		return &writeLearner{Learner: l}
	}}
}

// learner takes a pooled learner with a zeroed ledger and the default
// sample cap; the caller puts it back.
func (r *Router) learner() *writeLearner {
	l := r.learners.Get().(*writeLearner)
	l.Searches, l.MaxPaths = pref.SearchStats{}, pref.DefaultMaxPaths
	return l
}

// RegionGraph exposes the underlying region graph (read-only use).
func (r *Router) RegionGraph() *region.Graph { return r.rg }

// Road returns the road network.
func (r *Router) Road() *roadnet.Graph { return r.road }

// Stats returns offline pipeline statistics.
func (r *Router) Stats() Stats { return r.stats }

// Meta returns the router's artifact metadata: its name, the options
// it was built with, and the save generation of its lineage (0 until
// the first Save).
func (r *Router) Meta() ArtifactMeta { return r.meta }

// SetName names the router's world (a city, a tenant); the name is
// persisted by Save and keys the router in multi-tenant fleets.
func (r *Router) SetName(name string) { r.meta.Name = name }

// SetGeneration positions the router in its artifact lineage: the next
// Save stamps gen+1. Checkpointing (internal/wal + serve durability)
// saves throwaway clones of the serving snapshot, so each clone must
// inherit the lineage position the previous checkpoint reached rather
// than the base router's never-advancing copy.
func (r *Router) SetGeneration(gen uint64) { r.meta.Generation = gen }

// LearnedPreference returns the preference fitted to region edge
// edgeID's own path set — the paper's learned T-edge preference, with
// its training similarity and sample size — and false for an edge
// without one (B-edges, T-edges with no usable path) or an ID that
// names no edge. The fit lives on the edge (region.Edge.Fit), so a
// clone's write privatizes it together with the edge.
func (r *Router) LearnedPreference(edgeID int) (pref.Result, bool) {
	if edgeID < 0 || edgeID >= len(r.rg.Edges) {
		return pref.Result{}, false
	}
	return r.rg.Edges[edgeID].Fit()
}

// Clone returns another reader of the same model: a struct copy of r
// with its own query state — a fork of the path engine and no
// region-search scratch, both allocated lazily on the copy's first
// query — sharing the region graph and preference maps with r. Safe for
// concurrent queries; it must not be mutated — writes go through
// IngestClone, which starts here, so a new per-handle field is dropped
// in this one place. Clone is cheap, which the serving layer's
// per-snapshot clone pools rely on.
func (r *Router) Clone() *Router {
	cp := *r
	cp.eng, cp.scratch = r.eng.ForkCH(), nil
	return &cp
}

// IngestClone returns the next writer's generation: a Clone whose
// region graph is a copy-on-write clone (region.Graph.CloneCOW), so
// every mutator may run on it while r and r's Clones keep answering
// queries, at a cost of O(what the write touches), not O(model). Writes
// through the clone never reach memory r can see; in return r must not
// be mutated while a clone of it is alive. The package documentation
// ("Concurrency and cloning") states the contract and why each mutator
// keeps it.
func (r *Router) IngestClone() *Router {
	cp := r.Clone()
	cp.rg = r.rg.CloneCOW()
	return cp
}

// Build runs the full offline pipeline over a road network and a
// training trajectory set, with the paper's modularity clustering
// (Algorithm 1) choosing the regions.
func Build(road *roadnet.Graph, training []*traj.Trajectory, opt Options) (*Router, error) {
	opt = opt.withDefaults()
	r, paths, err := startBuild(road, training, opt, "modularity")
	if err != nil {
		return nil, err
	}

	// Phase 1a: clustering.
	start := time.Now()
	regions := cluster.Cluster(cluster.BuildTrajectoryGraph(road, paths), cluster.Options{})
	r.stats.ClusterTime = time.Since(start)
	return finishBuild(r, regions, paths, opt)
}

// BuildWithRegions runs the offline pipeline over a fixed,
// caller-supplied region partition, skipping the clustering phase.
// Background maintenance keeps the partition fixed while rebuilding
// everything derived from trajectories, so its convergence contract —
// an online-maintained router equals one rebuilt from scratch over the
// union evidence — is stated (and property-tested) against this entry
// point: feed it the live router's partition plus all evidence the
// maintained router ever saw. It is also how any partition other than
// the paper's — a grid, a road hierarchy — is carried end to end.
func BuildWithRegions(road *roadnet.Graph, regions []cluster.Region, training []*traj.Trajectory, opt Options) (*Router, error) {
	opt = opt.withDefaults()
	r, paths, err := startBuild(road, training, opt, "caller")
	if err != nil {
		return nil, err
	}
	return finishBuild(r, regions, paths, opt)
}

// startBuild validates inputs and runs phase 0 (map matching), shared
// by Build and BuildWithRegions; clusterMethod records in the artifact
// metadata where the regions come from.
func startBuild(road *roadnet.Graph, training []*traj.Trajectory, opt Options, clusterMethod string) (*Router, []roadnet.Path, error) {
	if road == nil || road.NumVertices() == 0 {
		return nil, nil, errors.New("core: empty road network")
	}
	if len(training) == 0 {
		return nil, nil, errors.New("core: no training trajectories")
	}

	r := &Router{road: road, idx: &lazyIndex{}}
	r.stats.Trajectories = len(training)
	r.meta.Build = BuildInfo{
		ClusterMethod:   clusterMethod,
		SkipMapMatching: opt.SkipMapMatching,
		LearnMaxPaths:   opt.LearnMaxPaths,
		Region:          opt.Region,
	}

	start := time.Now()
	paths := matchedPaths(road, r.idx, training, opt.SkipMapMatching, opt.Workers)
	r.stats.MatchedOK = len(paths)
	r.stats.MatchTime = time.Since(start)
	if len(paths) == 0 {
		return nil, nil, errors.New("core: map matching produced no usable paths")
	}
	return r, paths, nil
}

// finishBuild builds what depends on the chosen region partition alone
// — the region graph (phase 1b) and the contraction hierarchy — and
// hands over to derive for everything that depends on the evidence
// (phases 2a–3).
func finishBuild(r *Router, regions []cluster.Region, paths []roadnet.Path, opt Options) (*Router, error) {
	start := time.Now()
	r.rg = region.Build(r.road, regions, paths, opt.Region)
	r.rg.ConnectBFS()
	r.stats.ClusterTime += time.Since(start)

	// The hierarchy is contracted before learning, so the learner's
	// searches and B-edge materialization already run on it, exactly
	// once here, and shared by every Clone, IngestClone and serving fork
	// of this router. Its three scalar metrics come with it: the
	// learning pass's masked metrics are stored against them.
	start = time.Now()
	r.setEngine(newEngine(r.road, ch.BuildTopology(r.road)))
	r.stats.CHBuildTime = time.Since(start)
	r.stats.CHShortcuts = r.eng.Shortcuts()

	r.derive(opt.Workers)
	return r, nil
}

// transduce assembles the label/target sets from the region graph —
// confidently fitted T-edges label, B-edges are targets — and runs the
// preference transfer. Labels and targets are ordered canonically by
// region pair (not by edge ID), so the linear system's row order — and
// with it the floating-point summation order of the solve — is a
// function of the region graph's edge *set*: a router maintained online
// (whose edge IDs reflect discovery order across many ingests) and one
// rebuilt from scratch over the union evidence produce bit-identical
// transductions — whatever workers either ran with, since
// transfer.Run's result does not depend on its worker count.
func (r *Router) transduce(workers int) transfer.Result {
	var labels, targets []int
	for _, e := range r.rg.Edges {
		if fit, ok := e.Fit(); ok && fit.Similarity >= minConfidence {
			labels = append(labels, e.ID)
		}
		if e.Kind == region.BEdge {
			targets = append(targets, e.ID)
		}
	}
	sortByPair(r.rg, labels)
	sortByPair(r.rg, targets)
	labeled := make([]transfer.Labeled, len(labels))
	for i, id := range labels {
		fit, _ := r.rg.Edges[id].Fit()
		labeled[i] = transfer.Labeled{EdgeID: id, Pref: fit.Preference}
	}
	return transfer.Run(r.rg, labeled, targets, transfer.DefaultConfig(), workers)
}

// CHClimb reports what one shortest-path query costs on the router's
// contraction order — the elimination tree's height and the mean number
// of up-arcs one side of a query relaxes (ch.Topology.Height and
// ClimbArcsMean). The numbers describe the live topology and are not
// part of the persisted Stats.
func (r *Router) CHClimb() (height int, arcsMean float64) {
	t := r.eng.Topology()
	return t.Height(), t.ClimbArcsMean()
}

// CHMetricBytes returns the heap bytes of the customized metrics the
// router's lineage keeps resident (route.CHEngine.MetricBytes).
func (r *Router) CHMetricBytes() int { return r.eng.MetricBytes() }

// Customizations returns how many metric customizations the router's
// lineage — it and every clone sharing its metric table — has run
// (route.CHEngine.Customizations).
func (r *Router) Customizations() uint64 { return r.eng.Customizations() }

// EnableCH does nothing and returns 0: Build and Load return routers
// that already run on their hierarchy with every MetricKeys metric
// customized. It stays only while the benchmark module calls it
// (PathBackend says until when).
func (r *Router) EnableCH(_ ch.Config) time.Duration { return 0 }

// PrepareMetrics pre-customizes the hierarchy for every metric the
// router currently routes on — the three scalar weights plus each
// distinct ⟨master, slave⟩ preference applied on a region edge or
// learned per region — so queries never pay metric customization
// inline. Metrics already customized are shared,
// not redone: after an ingest that re-learned preferences, only
// combinations never seen before cost anything, and those are
// customized together in one sweep. It returns the number of metrics
// customized now and records (count, elapsed) in Stats. Like Ingest,
// it mutates engine state and must not run concurrently with queries
// on clones sharing this router's engine... except that it only *adds*
// metric versions, so serving forks reading the previous metric table
// race-freely is exactly the intended use (internal/serve customizes on
// the clone before the snapshot swap).
func (r *Router) PrepareMetrics() int { return r.prepareMetrics(r.eng) }

// prepareMetrics is PrepareMetrics through eng, a fork of r.eng; a
// pass fork's overlay metrics are adopted, not customized again.
func (r *Router) prepareMetrics(eng *route.CHEngine) int {
	start := time.Now()
	n := eng.PrepareAll(r.MetricKeys())
	r.stats.CHMetrics = n
	r.stats.CHCustomizeTime = time.Since(start)
	return n
}

// MetricKeys lists, once each, the metrics the router routes on — the
// set Load and PrepareMetrics customize: the three scalar weights,
// then every preference a region edge carries or one learned per
// region.
func (r *Router) MetricKeys() []route.MetricKey {
	var seen [roadnet.NumCostWeights][1 << roadnet.NumRoadTypes]bool
	keys := make([]route.MetricKey, 0, 16)
	add := func(p pref.Preference) {
		if !seen[p.Master][p.Slave] {
			seen[p.Master][p.Slave] = true
			keys = append(keys, route.MetricKey{W: p.Master, Mask: p.Slave.Mask()})
		}
	}
	for _, w := range []roadnet.Weight{roadnet.TT, roadnet.DI, roadnet.FC} {
		add(pref.Preference{Master: w})
	}
	for _, e := range r.rg.Edges {
		if e.HasPref {
			add(e.Pref)
		}
	}
	for _, res := range r.regionPrefs {
		add(res.Preference)
	}
	return keys
}

// PrepareMetricsTouched is the incremental PrepareMetrics for the
// serving write path: after Ingest re-learned the preferences of
// exactly IngestStats.TouchedEdges, only those edges can have
// introduced a never-customized ⟨master, slave⟩ combination — region
// preferences are fixed at build time. Scanning just the touched IDs
// keeps the per-swap customize cost proportional to
// the batch, not to the region graph. Unknown IDs are skipped, so
// callers may pass IngestStats.TouchedEdges verbatim.
func (r *Router) PrepareMetricsTouched(touched []int) int {
	start := time.Now()
	var keys []route.MetricKey
	for _, id := range touched {
		if id < 0 || id >= len(r.rg.Edges) {
			continue
		}
		// Most batches bring no new metric: listing only the missing ones
		// keeps this scan free of allocation.
		if e := r.rg.Edges[id]; e.HasPref && !r.eng.Resident(e.Pref.Master, e.Pref.Slave.Mask()) {
			keys = append(keys, route.MetricKey{W: e.Pref.Master, Mask: e.Pref.Slave.Mask()})
		}
	}
	n := r.eng.PrepareAll(keys)
	r.stats.CHMetrics = n
	r.stats.CHCustomizeTime = time.Since(start)
	return n
}

// sortByPair orders edge IDs canonically by their region pair, for
// deterministic, creation-history-independent matrices (each pair has
// exactly one edge, so the order is total).
func sortByPair(rg *region.Graph, ids []int) {
	sort.Slice(ids, func(i, j int) bool {
		a, b := rg.Edges[ids[i]], rg.Edges[ids[j]]
		if a.R1 != b.R1 {
			return a.R1 < b.R1
		}
		return a.R2 < b.R2
	})
}

// pathFinder adapts a route.CHEngine to the transfer.Materialize
// finder interface.
type pathFinder struct{ eng *route.CHEngine }

func (f *pathFinder) FindPath(p pref.Preference, s, d roadnet.VertexID) (roadnet.Path, bool) {
	path, _, ok := f.eng.RoutePref(s, d, p.Master, p.Slave.Predicate())
	return path, ok
}

func (f *pathFinder) FastestPath(s, d roadnet.VertexID) (roadnet.Path, bool) {
	path, _, ok := f.eng.Fastest(s, d)
	return path, ok
}

// matchedPaths is how trajectories become evidence, for Build and
// Ingest alike: every t.Matched is set — to t.Truth under skip, else by
// the map matcher on workers goroutines — and the usable paths, those
// with at least two vertices, are returned in input order.
func matchedPaths(road *roadnet.Graph, lazy *lazyIndex, ts []*traj.Trajectory, skip bool, workers int) []roadnet.Path {
	if skip {
		for _, t := range ts {
			t.Matched = t.Truth
		}
	} else {
		idx := lazy.get(road)
		var wg sync.WaitGroup
		ch := make(chan *traj.Trajectory, len(ts))
		for _, t := range ts {
			ch <- t
		}
		close(ch)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m := mapmatch.NewMatcher(road, idx, mapmatch.Config{})
				for t := range ch {
					points := make([]geo.Point, len(t.Records))
					for i, rec := range t.Records {
						points[i] = rec.P
					}
					t.Matched = m.Match(points)
				}
			}()
		}
		wg.Wait()
	}
	paths := make([]roadnet.Path, 0, len(ts))
	for _, t := range ts {
		if len(t.Matched) >= 2 {
			paths = append(paths, t.Matched)
		}
	}
	return paths
}

// learnJob is one path set awaiting a preference: a T-edge's or a
// region's, keyed by that ID.
type learnJob struct {
	id    int
	paths []roadnet.Path
}

// learnRegions learns one intra-region preference per region from its
// inner paths, preferring true local trips (Terminal) over segments of
// journeys passing through.
func learnRegions(pass *route.CHEngine, rg *region.Graph, workers, maxPaths int) map[int]pref.Result {
	var jobs []learnJob
	for reg := 0; reg < rg.NumRegions(); reg++ {
		var terminal, others []roadnet.Path
		for _, ip := range rg.InnerPaths(reg) {
			if len(ip.Path) < 3 {
				continue // trivial two-vertex hops carry no signal
			}
			if ip.Terminal > 0 {
				terminal = append(terminal, ip.Path)
			} else {
				others = append(others, ip.Path)
			}
		}
		ps := terminal
		if len(ps) < 2 {
			ps = append(ps, others...)
		}
		if len(ps) > 0 {
			jobs = append(jobs, learnJob{id: reg, paths: ps})
		}
	}
	return runLearnJobs(pass, jobs, workers, maxPaths)
}

// learnAll learns a preference per T-edge, in parallel. T-edges whose
// path sets span both directions are learned from the union.
func learnAll(pass *route.CHEngine, rg *region.Graph, workers, maxPaths int) map[int]pref.Result {
	var jobs []learnJob
	for _, e := range rg.Edges {
		if e.Kind != region.TEdge {
			continue
		}
		// Terminal fragments — full trips between exactly this region
		// pair — carry the pair's own routing preference undiluted;
		// fragments of trajectories merely passing through mix in the
		// preferences of other region pairs. Learn from terminal
		// fragments whenever enough exist.
		var terminal, others []roadnet.Path
		for _, set := range [][]region.PathInfo{e.PathsFwd, e.PathsRev} {
			for _, pi := range set {
				if pi.Terminal > 0 {
					terminal = append(terminal, pi.Path)
				} else {
					others = append(others, pi.Path)
				}
			}
		}
		// Two or more terminal fragments are trusted on their own; a
		// single one could be a noise trip, so it is pooled with the
		// pass-through fragments.
		ps := terminal
		if len(ps) < 2 {
			ps = append(ps, others...)
		}
		if len(ps) > 0 {
			jobs = append(jobs, learnJob{id: e.ID, paths: ps})
		}
	}
	return runLearnJobs(pass, jobs, workers, maxPaths)
}

// runLearnJobs learns every job's preference on workers learners, each
// over its own fork of the pass fork pass and sampling at most maxPaths
// paths (0 keeps the learner default).
func runLearnJobs(pass *route.CHEngine, jobs []learnJob, workers, maxPaths int) map[int]pref.Result {
	out := make(map[int]pref.Result, len(jobs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	ch := make(chan learnJob, len(jobs))
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	for w := 0; w < workers; w++ {
		l := pref.NewLearnerOn(pass.Fork())
		if maxPaths > 0 {
			l.MaxPaths = maxPaths
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				res := l.Learn(j.paths)
				mu.Lock()
				out[j.id] = res
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}
