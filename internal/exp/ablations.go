package exp

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/ch"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/pref"
	"repro/internal/roadnet"
	"repro/internal/route"
	"repro/internal/splice"
	"repro/internal/transfer"
)

// This file holds the ablation and extension experiments that go beyond
// the paper's published tables and figures: the related-work clustering
// comparison its Section II argues qualitatively, the Case-1/2/3
// coverage analysis its introduction motivates, the contraction-
// hierarchy speed-up it defers to future work, and the µ1/µ2
// sensitivity of the Eq. 2 objective.

// trainPaths extracts the ground-truth training paths of a world.
func trainPaths(w *World) []roadnet.Path {
	paths := make([]roadnet.Path, 0, len(w.Train))
	for _, t := range w.Train {
		paths = append(paths, t.Truth)
	}
	return paths
}

// ClusteringRow is one clustering method's summary.
type ClusteringRow struct {
	Method     string
	Regions    int
	MeanSize   float64
	Singletons int
	Modularity float64
	Elapsed    time.Duration
}

// AblationClusteringCompute compares the paper's modularity clustering
// (Algorithm 1) against the two related-work methods of Section II:
// the grid-based construction of Wei et al. and the road-hierarchy
// partition of Gonzalez et al. The paper's argument is qualitative
// (those methods need per-map parameters); this quantifies it, plus the
// modularity each method achieves on the same trajectory graph.
func AblationClusteringCompute(w *World) []ClusteringRow {
	tg, methods := clusteringMethods(w)
	var rows []ClusteringRow
	for _, m := range methods {
		start := time.Now()
		regions := m.regions()
		elapsed := time.Since(start)
		st := cluster.Summarize(w.Road, regions)
		rows = append(rows, ClusteringRow{
			Method:     m.name,
			Regions:    st.Regions,
			MeanSize:   st.MeanSize,
			Singletons: st.Singletons,
			Modularity: cluster.Modularity(tg, regions),
			Elapsed:    elapsed,
		})
	}
	return rows
}

// clusteringMethod is one way to partition a world's road network into
// regions from its ground-truth training paths.
type clusteringMethod struct {
	name    string
	regions func() []cluster.Region
}

// clusteringMethods lists the paper's clustering and the two
// related-work partitioners, for both clustering ablations, with the
// trajectory graph the paper's runs on.
func clusteringMethods(w *World) (*cluster.TrajectoryGraph, []clusteringMethod) {
	paths := trainPaths(w)
	tg := cluster.BuildTrajectoryGraph(w.Road, paths)
	return tg, []clusteringMethod{
		{"Modularity(paper)", func() []cluster.Region { return cluster.Cluster(tg) }},
		{"Grid(Wei12)", func() []cluster.Region {
			return cluster.GridCluster(w.Road, paths)
		}},
		{"Hierarchy(Gonzalez07)", func() []cluster.Region {
			return cluster.HierarchyPartition(w.Road, paths)
		}},
	}
}

// AblationClustering renders the clustering comparison.
func AblationClustering(w *World) string {
	var b strings.Builder
	b.WriteString(Header(fmt.Sprintf("Ablation: clustering methods (%s)", w.Name)))
	fmt.Fprintf(&b, "%-22s %8s %9s %11s %11s %10s\n",
		"method", "regions", "meansize", "singletons", "modularity", "time")
	for _, r := range AblationClusteringCompute(w) {
		fmt.Fprintf(&b, "%-22s %8d %9.2f %11d %11.4f %10s\n",
			r.Method, r.Regions, r.MeanSize, r.Singletons, r.Modularity, r.Elapsed.Round(time.Millisecond))
	}
	return b.String()
}

// CaseCoverageRow reports, for one distance bucket, how many test
// queries trajectory splicing (the Case-1/2 state of the art) can serve
// versus L2R, and the mean Eq. 1 accuracy of each on the queries
// splicing can serve.
type CaseCoverageRow struct {
	Bucket      string
	Queries     int
	SpliceOK    int     // queries MPR could answer (Cases 1–2)
	SpliceAcc   float64 // mean Eq.1 accuracy of MPR where it answered
	L2RAccThere float64 // mean Eq.1 accuracy of L2R on the same queries
	L2RAccAll   float64 // mean Eq.1 accuracy of L2R on all queries
}

// CaseCoverageCompute quantifies the paper's Case-3 motivation: the
// fraction of (s, d) pairs not connectable by splicing historical
// trajectories, where methods [18]-[21] "no longer work" and L2R still
// answers.
func CaseCoverageCompute(w *World) ([]CaseCoverageRow, error) {
	r, err := w.Router()
	if err != nil {
		return nil, err
	}
	mpr := splice.NewMPR(w.Road, w.Train)
	rows := make([]CaseCoverageRow, len(w.BucketsKm))
	for i, up := range w.BucketsKm {
		lo := 0.0
		if i > 0 {
			lo = w.BucketsKm[i-1]
		}
		rows[i].Bucket = fmt.Sprintf("(%g,%g]", lo, up)
	}
	sums := make([]struct {
		spliceAcc, l2rThere, l2rAll float64
	}, len(rows))
	for _, t := range w.Test {
		gt := t.Truth
		km := gt.Length(w.Road) / 1000
		bi := -1
		for i, up := range w.BucketsKm {
			lo := 0.0
			if i > 0 {
				lo = w.BucketsKm[i-1]
			}
			if km > lo && km <= up {
				bi = i
				break
			}
		}
		if bi < 0 {
			continue
		}
		rows[bi].Queries++
		l2rPath := r.Route(t.Source(), t.Destination()).Path
		l2rAcc := pref.SimEq1(w.Road, gt, l2rPath)
		sums[bi].l2rAll += l2rAcc
		sp, ok := mpr.Graph().Route(t.Source(), t.Destination())
		if !ok {
			continue
		}
		rows[bi].SpliceOK++
		sums[bi].spliceAcc += pref.SimEq1(w.Road, gt, sp)
		sums[bi].l2rThere += l2rAcc
	}
	for i := range rows {
		if rows[i].Queries > 0 {
			sums[i].l2rAll /= float64(rows[i].Queries)
		}
		if rows[i].SpliceOK > 0 {
			sums[i].spliceAcc /= float64(rows[i].SpliceOK)
			sums[i].l2rThere /= float64(rows[i].SpliceOK)
		}
		rows[i].SpliceAcc = 100 * sums[i].spliceAcc
		rows[i].L2RAccThere = 100 * sums[i].l2rThere
		rows[i].L2RAccAll = 100 * sums[i].l2rAll
	}
	return rows, nil
}

// CaseCoverage renders the Case-1/2/3 coverage analysis.
func CaseCoverage(w *World) string {
	rows, err := CaseCoverageCompute(w)
	if err != nil {
		return fmt.Sprintf("casecov: %v", err)
	}
	var b strings.Builder
	b.WriteString(Header(fmt.Sprintf("Case coverage: splicing (MPR) vs L2R (%s)", w.Name)))
	fmt.Fprintf(&b, "%-10s %8s %9s %10s %12s %10s\n",
		"distance", "queries", "spliceOK", "spliceAcc", "L2R@served", "L2R@all")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %8d %9d %9.1f%% %11.1f%% %9.1f%%\n",
			r.Bucket, r.Queries, r.SpliceOK, r.SpliceAcc, r.L2RAccThere, r.L2RAccAll)
	}
	return b.String()
}

// CHRow summarizes the speed-up comparison for one weight.
type CHRow struct {
	Weight      roadnet.Weight
	Shortcuts   int
	BuildTime   time.Duration
	CHQueryNs   float64
	DijkQueryNs float64
	Speedup     float64
}

// CHSpeedupCompute builds a CH-backed PathEngine for each travel-cost
// weight and measures the query speed-up over plain Dijkstra — the
// "interesting future research direction" of Section VII-C. Both sides
// run through the route.PathEngine seam and return full (unpacked)
// paths, so the comparison is what every router gains from running its
// searches on the hierarchy rather than on plain Dijkstra.
func CHSpeedupCompute(w *World, queries int) []CHRow {
	eng := route.NewEngine(w.Road)
	rng := rand.New(rand.NewSource(99))
	n := w.Road.NumVertices()
	pairs := make([][2]roadnet.VertexID, queries)
	for i := range pairs {
		pairs[i] = [2]roadnet.VertexID{
			roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n)),
		}
	}
	var rows []CHRow
	for _, weight := range []roadnet.Weight{roadnet.DI, roadnet.TT, roadnet.FC} {
		start := time.Now()
		che := route.BuildCHEngine(w.Road, weight, ch.Config{})
		build := time.Since(start)

		start = time.Now()
		for _, p := range pairs {
			che.Route(p[0], p[1], weight)
		}
		chNs := float64(time.Since(start).Nanoseconds()) / float64(len(pairs))

		start = time.Now()
		for _, p := range pairs {
			eng.Route(p[0], p[1], weight)
		}
		dijNs := float64(time.Since(start).Nanoseconds()) / float64(len(pairs))

		rows = append(rows, CHRow{
			Weight: weight, Shortcuts: che.Shortcuts(), BuildTime: build,
			CHQueryNs: chNs, DijkQueryNs: dijNs, Speedup: dijNs / chNs,
		})
	}
	return rows
}

// CHSpeedup renders the contraction-hierarchy comparison.
func CHSpeedup(w *World) string {
	var b strings.Builder
	b.WriteString(Header(fmt.Sprintf("Extension: contraction hierarchies vs Dijkstra (%s)", w.Name)))
	fmt.Fprintf(&b, "%-7s %10s %10s %12s %12s %8s\n",
		"weight", "shortcuts", "build", "CH/query", "Dijk/query", "speedup")
	for _, r := range CHSpeedupCompute(w, 200) {
		fmt.Fprintf(&b, "%-7s %10d %10s %11.0fns %11.0fns %7.1fx\n",
			r.Weight, r.Shortcuts, r.BuildTime.Round(time.Millisecond),
			r.CHQueryNs, r.DijkQueryNs, r.Speedup)
	}
	return b.String()
}

// MuRow is one (µ1, µ2) setting's transfer accuracy.
type MuRow struct {
	Mu1, Mu2 float64
	Accuracy float64
	NullRate float64
}

// AblationMuCompute sweeps the two hyper-parameters of the Eq. 2
// objective using the same 4-partition hold-out protocol as Fig. 9.
func AblationMuCompute(w *World) ([]MuRow, error) {
	parts, err := labeledPartitions(w, 5)
	if err != nil {
		return nil, err
	}
	var train []transfer.Labeled
	for _, p := range parts[:4] {
		train = append(train, p...)
	}
	holdout := parts[4]
	var rows []MuRow
	for _, mu1 := range []float64{0.1, 1.0, 10.0} {
		for _, mu2 := range []float64{0.001, 0.01, 0.1} {
			cfg := transfer.DefaultConfig()
			cfg.Mu1, cfg.Mu2 = mu1, mu2
			acc, null, _, err := TransferAccuracy(w, train, holdout, cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, MuRow{Mu1: mu1, Mu2: mu2, Accuracy: acc, NullRate: null})
		}
	}
	return rows, nil
}

// AblationMu renders the µ1/µ2 sensitivity sweep.
func AblationMu(w *World) string {
	rows, err := AblationMuCompute(w)
	if err != nil {
		return fmt.Sprintf("mu ablation: %v", err)
	}
	var b strings.Builder
	b.WriteString(Header(fmt.Sprintf("Ablation: Eq. 2 hyper-parameters (%s)", w.Name)))
	fmt.Fprintf(&b, "%6s %7s %9s %9s\n", "mu1", "mu2", "accuracy", "nullrate")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6.2f %7.3f %8.1f%% %8.1f%%\n", r.Mu1, r.Mu2, r.Accuracy, r.NullRate)
	}
	return b.String()
}

// E2ERow is one clustering method's end-to-end routing accuracy.
type E2ERow struct {
	Method   string
	Regions  int
	TEdges   int
	BEdges   int
	AccEq1   float64
	Queries  int
	BuildDur time.Duration
}

// AblationClusteringE2ECompute builds a full L2R router per clustering
// method and evaluates routing accuracy on the world's test split —
// the downstream consequence of the region partition, which the
// region-statistics comparison alone cannot show.
func AblationClusteringE2ECompute(w *World) ([]E2ERow, error) {
	var rows []E2ERow
	// The comparison holds the pipeline budget fixed across methods:
	// region-pair span and learner sample are capped identically so the
	// three builds are comparable and tractable (the grid and hierarchy
	// partitions produce regions a long trajectory crosses by the
	// dozen, which explodes the unbounded T-edge construction the
	// default pipeline uses).
	queries := w.Test
	if len(queries) > 200 {
		queries = queries[:200]
	}
	opt := w.opts
	opt.Region.MaxRegionSpan = 4
	opt.LearnMaxPaths = 4
	_, methods := clusteringMethods(w)
	for _, method := range methods {
		start := time.Now()
		r, err := core.BuildWithRegions(w.Road, method.regions(), w.Train, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", method.name, err)
		}
		dur := time.Since(start)
		var sum float64
		n := 0
		for _, t := range queries {
			res := r.Route(t.Source(), t.Destination())
			sum += pref.SimEq1(w.Road, t.Truth, res.Path)
			n++
		}
		acc := 0.0
		if n > 0 {
			acc = 100 * sum / float64(n)
		}
		st := r.Stats()
		rows = append(rows, E2ERow{
			Method: method.name, Regions: st.Regions,
			TEdges: st.TEdges, BEdges: st.BEdges,
			AccEq1: acc, Queries: n, BuildDur: dur,
		})
	}
	return rows, nil
}

// AblationClusteringE2E renders the end-to-end clustering ablation.
func AblationClusteringE2E(w *World) string {
	rows, err := AblationClusteringE2ECompute(w)
	if err != nil {
		return fmt.Sprintf("clustering e2e: %v", err)
	}
	var b strings.Builder
	b.WriteString(Header(fmt.Sprintf("Ablation: clustering method, end-to-end accuracy (%s)", w.Name)))
	fmt.Fprintf(&b, "%-22s %8s %7s %7s %9s %8s %10s\n",
		"method", "regions", "Tedges", "Bedges", "accEq1", "queries", "build")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %8d %7d %7d %8.1f%% %8d %10s\n",
			r.Method, r.Regions, r.TEdges, r.BEdges, r.AccEq1, r.Queries, r.BuildDur.Round(time.Millisecond))
	}
	return b.String()
}
