package exp

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/pref"
	"repro/internal/region"
	"repro/internal/roadnet"
	"repro/internal/transfer"
)

// tEdgeIDs returns the IDs of T-edges carrying a learned preference,
// sorted for determinism.
func tEdgeIDs(r interface {
	RegionGraph() *region.Graph
	LearnedPreference(int) (pref.Result, bool)
}) []int {
	rg := r.RegionGraph()
	var ids []int
	for _, e := range rg.Edges {
		if e.Kind != region.TEdge {
			continue
		}
		if _, ok := r.LearnedPreference(int(e.ID)); ok {
			ids = append(ids, int(e.ID))
		}
	}
	sort.Ints(ids)
	return ids
}

// Fig6aData holds the Fig. 6(a) statistics: the share of T-edges by
// number of unique per-path preferences, and the distribution of learned
// preferences across the three master cost features.
type Fig6aData struct {
	// UniqueShare[k] is the percentage of sampled T-edges whose path set
	// produced exactly k+1 unique preferences (last bucket = "more").
	UniqueShare []float64
	// MasterShare maps DI/TT/FC to the percentage of learned
	// preferences using that master.
	MasterShare  map[roadnet.Weight]float64
	SampledEdges int
}

// Fig6aCompute derives the data from up to maxEdges T-edges.
func Fig6aCompute(w *World, maxEdges int) (Fig6aData, error) {
	r, err := w.Router()
	if err != nil {
		return Fig6aData{}, err
	}
	rg := r.RegionGraph()
	learner := pref.NewLearner(w.Road)
	uniqueCounts := make([]int, 4) // 1, 2, 3, >=4
	masterCounts := make(map[roadnet.Weight]int)
	sampled := 0
	for _, id := range tEdgeIDs(r) {
		if sampled >= maxEdges {
			break
		}
		e := rg.Edges[id]
		var paths []roadnet.Path
		for _, pi := range e.PathsFwd {
			paths = append(paths, pi.Path)
		}
		for _, pi := range e.PathsRev {
			paths = append(paths, pi.Path)
		}
		if len(paths) == 0 {
			continue
		}
		if len(paths) > 6 {
			paths = paths[:6]
		}
		results := learner.LearnPerPath(paths)
		uniq := make(map[pref.Preference]bool)
		for _, res := range results {
			uniq[res.Preference] = true
		}
		k := len(uniq)
		if k == 0 {
			continue
		}
		if k > 4 {
			k = 4
		}
		uniqueCounts[k-1]++
		if lr, ok := r.LearnedPreference(id); ok {
			masterCounts[lr.Preference.Master]++
		}
		sampled++
	}
	data := Fig6aData{
		UniqueShare:  make([]float64, 4),
		MasterShare:  make(map[roadnet.Weight]float64),
		SampledEdges: sampled,
	}
	if sampled > 0 {
		for i, c := range uniqueCounts {
			data.UniqueShare[i] = 100 * float64(c) / float64(sampled)
		}
		var totalMaster int
		for _, c := range masterCounts {
			totalMaster += c
		}
		for wgt, c := range masterCounts {
			data.MasterShare[wgt] = 100 * float64(c) / float64(totalMaster)
		}
	}
	return data, nil
}

// Fig6a renders the Fig. 6(a) report.
func Fig6a(w *World) string {
	data, err := Fig6aCompute(w, 250)
	if err != nil {
		return fmt.Sprintf("Fig6a(%s): %v\n", w.Name, err)
	}
	var sb strings.Builder
	sb.WriteString(Header(fmt.Sprintf("Fig. 6(a) — Distribution of Preferences (%s)", w.Name)))
	fmt.Fprintf(&sb, "T-edges sampled: %d\n", data.SampledEdges)
	labels := []string{"1 preference", "2 preferences", "3 preferences", ">=4 preferences"}
	for i, l := range labels {
		fmt.Fprintf(&sb, "%-16s %6.1f%%\n", l, data.UniqueShare[i])
	}
	sb.WriteString("Learned preference master distribution:\n")
	for _, wgt := range []roadnet.Weight{roadnet.DI, roadnet.TT, roadnet.FC} {
		fmt.Fprintf(&sb, "  %-3s %6.1f%%\n", wgt, data.MasterShare[wgt])
	}
	return sb.String()
}

// Fig6bRow is one T-edge-similarity bucket of Fig. 6(b).
type Fig6bRow struct {
	LoSim, HiSim float64
	PrefSimPct   float64 // mean preference Jaccard in the bucket, %
	PairSharePct float64 // share of all pairs falling in the bucket, %
	Pairs        int
}

// Fig6bCompute evaluates T-edge pair similarity against preference
// similarity over up to maxPairs pairs.
func Fig6bCompute(w *World, maxPairs int) ([]Fig6bRow, error) {
	r, err := w.Router()
	if err != nil {
		return nil, err
	}
	rg := r.RegionGraph()
	ids := tEdgeIDs(r)
	rows := make([]Fig6bRow, 9)
	for i := range rows {
		rows[i] = Fig6bRow{LoSim: 0.1 * float64(i), HiSim: 0.1*float64(i) + 0.1}
	}
	feats := make(map[int]transfer.Features, len(ids))
	for _, id := range ids {
		feats[id] = transfer.EdgeFeatures(rg, rg.Edges[id])
	}
	total := 0
	stride := 1
	if n := len(ids); n*(n-1)/2 > maxPairs && n > 1 {
		stride = n * (n - 1) / 2 / maxPairs
		if stride < 1 {
			stride = 1
		}
	}
	k := 0
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			k++
			if k%stride != 0 {
				continue
			}
			sim := transfer.ReSim(feats[ids[i]], feats[ids[j]])
			idx := int(sim * 10)
			if idx > 8 {
				idx = 8
			}
			pi, _ := r.LearnedPreference(ids[i])
			pj, _ := r.LearnedPreference(ids[j])
			rows[idx].PrefSimPct += 100 * transfer.Jaccard(pi.Preference, pj.Preference)
			rows[idx].Pairs++
			total++
		}
	}
	for i := range rows {
		if rows[i].Pairs > 0 {
			rows[i].PrefSimPct /= float64(rows[i].Pairs)
		}
		if total > 0 {
			rows[i].PairSharePct = 100 * float64(rows[i].Pairs) / float64(total)
		}
	}
	return rows, nil
}

// Fig6b renders the Fig. 6(b) report.
func Fig6b(w *World) string {
	rows, err := Fig6bCompute(w, 40_000)
	if err != nil {
		return fmt.Sprintf("Fig6b(%s): %v\n", w.Name, err)
	}
	var sb strings.Builder
	sb.WriteString(Header(fmt.Sprintf("Fig. 6(b) — T-Edge Similarity vs Preference Similarity (%s)", w.Name)))
	fmt.Fprintf(&sb, "%-12s %18s %16s %8s\n", "reSim bucket", "Pref similarity (%)", "Pair share (%)", "Pairs")
	for _, row := range rows {
		fmt.Fprintf(&sb, "[%.1f,%.1f)   %18.1f %16.1f %8d\n",
			row.LoSim, row.HiSim, row.PrefSimPct, row.PairSharePct, row.Pairs)
	}
	return sb.String()
}

// maxHoldoutLabels caps the Fig. 9 hold-out studies: the transduction
// adjacency matrix is O(n²) in the labeled-edge count, and the accuracy
// estimate stabilizes well below the cap.
const maxHoldoutLabels = 1500

// labeledPartitions splits the learned T-edge labels into k partitions
// deterministically (round-robin over the sorted edge IDs, evenly
// thinned to maxHoldoutLabels).
func labeledPartitions(w *World, k int) ([][]transfer.Labeled, error) {
	r, err := w.Router()
	if err != nil {
		return nil, err
	}
	ids := tEdgeIDs(r)
	if len(ids) > maxHoldoutLabels {
		step := float64(len(ids)) / float64(maxHoldoutLabels)
		thin := make([]int, 0, maxHoldoutLabels)
		for i := 0; i < maxHoldoutLabels; i++ {
			thin = append(thin, ids[int(float64(i)*step)])
		}
		ids = thin
	}
	parts := make([][]transfer.Labeled, k)
	for i, id := range ids {
		res, _ := r.LearnedPreference(id)
		p := i % k
		parts[p] = append(parts[p], transfer.Labeled{EdgeID: id, Pref: res.Preference})
	}
	return parts, nil
}

// TransferAccuracy runs the hold-out transfer evaluation: label with the
// given training partitions, transfer to the hold-out edges, and score
// transferred preferences against the learned ground truth by Jaccard
// similarity. Returns accuracy %, null rate %, and elapsed time.
func TransferAccuracy(w *World, train []transfer.Labeled, holdout []transfer.Labeled, cfg transfer.Config) (acc, nullRate float64, elapsed time.Duration, err error) {
	r, err := w.Router()
	if err != nil {
		return 0, 0, 0, err
	}
	targets := make([]int, len(holdout))
	truth := make(map[int]pref.Preference, len(holdout))
	for i, h := range holdout {
		targets[i] = h.EdgeID
		truth[h.EdgeID] = h.Pref
	}
	start := time.Now()
	res := transfer.Run(r.RegionGraph(), train, targets, cfg, 0)
	elapsed = time.Since(start)
	var sum float64
	n := 0
	for id, got := range res.Pref {
		sum += transfer.Jaccard(got, truth[id])
		n++
	}
	if n > 0 {
		acc = 100 * sum / float64(n)
	}
	if len(holdout) > 0 {
		nullRate = 100 * float64(len(res.Null)) / float64(len(holdout))
	}
	return acc, nullRate, elapsed, nil
}

// Fig9aRow is one point of the Fig. 9(a) series.
type Fig9aRow struct {
	Partitions  int
	AccuracyPct float64
}

// Fig9aCompute reproduces Fig. 9(a): transfer accuracy when using
// 1X..4X of the T-edge preference partitions as training data, with the
// fifth partition held out as ground truth.
func Fig9aCompute(w *World) ([]Fig9aRow, error) {
	parts, err := labeledPartitions(w, 5)
	if err != nil {
		return nil, err
	}
	holdout := parts[4]
	cfg := transfer.DefaultConfig()
	var rows []Fig9aRow
	var train []transfer.Labeled
	for k := 1; k <= 4; k++ {
		train = append(train, parts[k-1]...)
		acc, _, _, err := TransferAccuracy(w, train, holdout, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig9aRow{Partitions: k, AccuracyPct: acc})
	}
	return rows, nil
}

// Fig9a renders the Fig. 9(a) report.
func Fig9a(w *World) string {
	rows, err := Fig9aCompute(w)
	if err != nil {
		return fmt.Sprintf("Fig9a(%s): %v\n", w.Name, err)
	}
	var sb strings.Builder
	sb.WriteString(Header(fmt.Sprintf("Fig. 9(a) — Transfer Accuracy vs # T-Edges (%s)", w.Name)))
	fmt.Fprintf(&sb, "%-10s %12s\n", "# T-edges", "Accuracy (%)")
	labels := []string{"x", "2x", "3x", "4x"}
	for i, row := range rows {
		fmt.Fprintf(&sb, "%-10s %12.1f\n", labels[i], row.AccuracyPct)
	}
	return sb.String()
}

// Fig9bRow is one point of the Fig. 9(b) sweep.
type Fig9bRow struct {
	AMR         float64
	AccuracyPct float64
	NullRatePct float64
	RunTime     time.Duration
}

// Fig9bCompute reproduces Fig. 9(b): the amr threshold sweep with
// 4 partitions of training labels and the fifth held out.
func Fig9bCompute(w *World) ([]Fig9bRow, error) {
	parts, err := labeledPartitions(w, 5)
	if err != nil {
		return nil, err
	}
	var train []transfer.Labeled
	for k := 0; k < 4; k++ {
		train = append(train, parts[k]...)
	}
	holdout := parts[4]
	var rows []Fig9bRow
	for _, amr := range []float64{0.5, 0.6, 0.7, 0.8, 0.9} {
		cfg := transfer.DefaultConfig()
		cfg.AMR = amr
		acc, nullRate, elapsed, err := TransferAccuracy(w, train, holdout, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig9bRow{AMR: amr, AccuracyPct: acc, NullRatePct: nullRate, RunTime: elapsed})
	}
	return rows, nil
}

// Fig9b renders the Fig. 9(b) report.
func Fig9b(w *World) string {
	rows, err := Fig9bCompute(w)
	if err != nil {
		return fmt.Sprintf("Fig9b(%s): %v\n", w.Name, err)
	}
	var sb strings.Builder
	sb.WriteString(Header(fmt.Sprintf("Fig. 9(b) — Varying amr (%s)", w.Name)))
	fmt.Fprintf(&sb, "%-6s %14s %14s %12s\n", "amr", "Accuracy (%)", "N-rate (%)", "Run-time")
	for _, row := range rows {
		fmt.Fprintf(&sb, "%-6.1f %14.1f %14.1f %12s\n",
			row.AMR, row.AccuracyPct, row.NullRatePct, row.RunTime.Round(time.Millisecond))
	}
	return sb.String()
}
