package exp

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/baseline"
	"repro/internal/eval"
)

// evalCache holds the single accuracy/latency evaluation run per world:
// Figures 10, 11 and 12 all read from one pass over the test queries.
var (
	evalMu    sync.Mutex
	evalRuns  = map[*World]*eval.Run{}
	queryCaps = map[Scale]int{Small: 400, Full: 3000}
)

// EvalRun evaluates L2R against Shortest, Fastest, Dom and TRIP on the
// world's test split, caching the result for the three figures that
// share it.
func EvalRun(w *World) (*eval.Run, error) {
	evalMu.Lock()
	defer evalMu.Unlock()
	if run, ok := evalRuns[w]; ok {
		return run, nil
	}
	r, err := w.Router()
	if err != nil {
		return nil, err
	}
	queries := eval.QueriesFrom(w.Road, r, w.Test)
	if limit := queryCaps[w.cfg.Scale]; len(queries) > limit {
		queries = queries[:limit]
	}
	algs := []eval.Algorithm{
		eval.WrapL2R(r),
		baseline.NewShortest(w.Road),
		baseline.NewFastest(w.Road),
		baseline.NewDom(w.Road, w.Train, 4),
		baseline.NewTRIP(w.Road, w.Train),
	}
	run := eval.Evaluate(w.Road, queries, algs, w.BucketsKm)
	evalRuns[w] = run
	return run, nil
}

// Fig10 renders accuracy (Eq. 1) by distance and by region category.
func Fig10(w *World) string {
	run, err := EvalRun(w)
	if err != nil {
		return fmt.Sprintf("Fig10(%s): %v\n", w.Name, err)
	}
	var sb strings.Builder
	sb.WriteString(Header(fmt.Sprintf("Fig. 10 — Accuracy using Equation 1 (%s)", w.Name)))
	sb.WriteString("(a/c) By distance:\n")
	sb.WriteString(run.FormatAccuracyByDistance(false))
	sb.WriteString("(b/d) By region category:\n")
	sb.WriteString(run.FormatAccuracyByCategory(false))
	return sb.String()
}

// Fig11 renders accuracy (Eq. 4) by distance and by region category.
func Fig11(w *World) string {
	run, err := EvalRun(w)
	if err != nil {
		return fmt.Sprintf("Fig11(%s): %v\n", w.Name, err)
	}
	var sb strings.Builder
	sb.WriteString(Header(fmt.Sprintf("Fig. 11 — Accuracy using Equation 4 (%s)", w.Name)))
	sb.WriteString("(a/c) By distance:\n")
	sb.WriteString(run.FormatAccuracyByDistance(true))
	sb.WriteString("(b/d) By region category:\n")
	sb.WriteString(run.FormatAccuracyByCategory(true))
	return sb.String()
}

// Fig12 renders the online run-time comparison.
func Fig12(w *World) string {
	run, err := EvalRun(w)
	if err != nil {
		return fmt.Sprintf("Fig12(%s): %v\n", w.Name, err)
	}
	var sb strings.Builder
	sb.WriteString(Header(fmt.Sprintf("Fig. 12 — Online Running Time (%s)", w.Name)))
	sb.WriteString("(a/c) By distance:\n")
	sb.WriteString(run.FormatTimeByDistance())
	sb.WriteString("(b/d) By region category:\n")
	sb.WriteString(run.FormatTimeByCategory())
	return sb.String()
}

// Fig13 compares L2R against the simulated web routing service with the
// band-matching methodology of Fig. 14 (10 m band).
func Fig13(w *World) string {
	r, err := w.Router()
	if err != nil {
		return fmt.Sprintf("Fig13(%s): %v\n", w.Name, err)
	}
	queries := eval.QueriesFrom(w.Road, r, w.Test)
	if limit := queryCaps[w.cfg.Scale]; len(queries) > limit {
		queries = queries[:limit]
	}
	main := eval.Evaluate(w.Road, queries, []eval.Algorithm{eval.WrapL2R(r)}, w.BucketsKm)
	ws := baseline.NewWebService(w.Road)
	wsRun := eval.EvaluateWaypoints(w.Road, queries, ws, 10, w.BucketsKm)
	main.Merge(wsRun)

	var sb strings.Builder
	sb.WriteString(Header(fmt.Sprintf("Fig. 13 — Comparison with the Web Routing Service (%s)", w.Name)))
	sb.WriteString("By distance:\n")
	sb.WriteString(main.FormatAccuracyByDistance(false))
	sb.WriteString("By region category:\n")
	sb.WriteString(main.FormatAccuracyByCategory(false))
	sb.WriteString("Note: the service's accuracy is measured by 10 m band matching of\n")
	sb.WriteString("its way-points against the ground-truth polyline (paper Fig. 14).\n")
	return sb.String()
}

// Significance renders paired sign tests of L2R against each baseline
// over the per-query Eq. 1 similarities of the shared evaluation run —
// the per-query statistical view behind the mean-accuracy bars of
// Figs. 10–11.
func Significance(w *World) string {
	run, err := EvalRun(w)
	if err != nil {
		return fmt.Sprintf("significance: %v", err)
	}
	var b strings.Builder
	b.WriteString(Header(fmt.Sprintf("Paired sign tests: L2R vs baselines, Eq. 1 (%s)", w.Name)))
	fmt.Fprintf(&b, "%-10s %6s %8s %6s %10s %12s\n", "baseline", "wins", "losses", "ties", "p-value", "significant")
	for _, name := range run.Algorithms {
		if name == "L2R" {
			continue
		}
		a, base := run.PairedScores("L2R", name)
		if a == nil {
			continue
		}
		st := eval.SignTest(a, base, 1e-9)
		fmt.Fprintf(&b, "%-10s %6d %8d %6d %10.2g %12v\n",
			name, st.Wins, st.Losses, st.Ties, st.PValue, st.Significant(0.05))
	}
	return b.String()
}
