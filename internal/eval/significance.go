package eval

import "math"

// SignTestResult reports a paired sign test between two algorithms'
// per-query similarities.
type SignTestResult struct {
	// Wins counts queries where A strictly beats B; Losses the
	// opposite; Ties the remainder.
	Wins, Losses, Ties int
	// PValue is the two-sided binomial sign-test p-value for the null
	// hypothesis that wins and losses are equally likely.
	PValue float64
}

// N returns the number of informative (non-tied) pairs.
func (r SignTestResult) N() int { return r.Wins + r.Losses }

// Significant reports whether the null is rejected at level alpha.
func (r SignTestResult) Significant(alpha float64) bool {
	return r.N() > 0 && r.PValue < alpha
}

// SignTest runs a paired two-sided sign test over per-query scores
// (e.g. Eq. 1 similarities) of algorithms A and B. Pairs differing by
// less than eps count as ties and are discarded, per standard practice.
// The slices must have equal length; extra entries are ignored.
//
// The paper's accuracy figures (Figs. 10–13) compare means; the sign
// test adds the per-query view a reviewer would ask for — whether A
// beats B on significantly more queries than chance.
func SignTest(a, b []float64, eps float64) SignTestResult {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var res SignTestResult
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		switch {
		case d > eps:
			res.Wins++
		case d < -eps:
			res.Losses++
		default:
			res.Ties++
		}
	}
	res.PValue = binomTwoSided(res.Wins, res.N())
	return res
}

// binomTwoSided returns the two-sided p-value of observing k successes
// in n fair coin flips: 2·min(P[X≤k], P[X≥k]), capped at 1.
func binomTwoSided(k, n int) float64 {
	if n == 0 {
		return 1
	}
	lo := binomCDF(k, n)
	hi := 1 - binomCDF(k-1, n)
	p := 2 * math.Min(lo, hi)
	if p > 1 {
		p = 1
	}
	return p
}

// binomCDF returns P[X ≤ k] for X ~ Binomial(n, 1/2), computed in log
// space for numerical stability at large n.
func binomCDF(k, n int) float64 {
	if k < 0 {
		return 0
	}
	if k >= n {
		return 1
	}
	sum := 0.0
	logHalfN := float64(n) * math.Log(0.5)
	for i := 0; i <= k; i++ {
		sum += math.Exp(logChoose(n, i) + logHalfN)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// logChoose returns log(n choose k) via log-gamma.
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x + 1))
		return v
	}
	return lg(n) - lg(k) - lg(n-k)
}

// PairedScores extracts per-query Eq. 1 similarity vectors for two
// named algorithms from a Run, aligned by query order. It returns nil
// slices if either algorithm is missing.
func (r *Run) PairedScores(algA, algB string) (a, b []float64) {
	sa, okA := r.PerQuery[algA]
	sb, okB := r.PerQuery[algB]
	if !okA || !okB {
		return nil, nil
	}
	pick := func(s []QueryScore) []float64 {
		out := make([]float64, len(s))
		for i, q := range s {
			out[i] = q.Eq1
		}
		return out
	}
	return pick(sa), pick(sb)
}
