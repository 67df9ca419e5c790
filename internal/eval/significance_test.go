package eval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/baseline"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

func TestSignTestAllWins(t *testing.T) {
	a := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	b := []float64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	r := SignTest(a, b, 1e-9)
	if r.Wins != 10 || r.Losses != 0 || r.Ties != 0 {
		t.Fatalf("counts = %+v", r)
	}
	// P[X>=10 or X<=10 two-sided] = 2 * (1/2)^10 ≈ 0.00195.
	if math.Abs(r.PValue-2*math.Pow(0.5, 10)) > 1e-9 {
		t.Fatalf("p = %g", r.PValue)
	}
	if !r.Significant(0.05) {
		t.Fatal("10/10 wins not significant at 0.05")
	}
}

func TestSignTestBalanced(t *testing.T) {
	a := []float64{1, 0, 1, 0, 1, 0}
	b := []float64{0, 1, 0, 1, 0, 1}
	r := SignTest(a, b, 1e-9)
	if r.Wins != 3 || r.Losses != 3 {
		t.Fatalf("counts = %+v", r)
	}
	if r.PValue < 0.99 {
		t.Fatalf("balanced outcome p = %g, want ≈ 1", r.PValue)
	}
	if r.Significant(0.05) {
		t.Fatal("balanced outcome flagged significant")
	}
}

func TestSignTestTiesDiscarded(t *testing.T) {
	a := []float64{0.5, 0.5, 0.9}
	b := []float64{0.5, 0.5, 0.1}
	r := SignTest(a, b, 1e-6)
	if r.Ties != 2 || r.Wins != 1 || r.N() != 1 {
		t.Fatalf("counts = %+v", r)
	}
}

func TestSignTestEmpty(t *testing.T) {
	r := SignTest(nil, nil, 1e-9)
	if r.PValue != 1 || r.Significant(0.05) {
		t.Fatalf("empty test = %+v", r)
	}
}

// TestQuickSignTestPValueRange: p-values are always in [0, 1] and the
// test is symmetric — swapping a and b swaps wins/losses but keeps p.
func TestQuickSignTestPValueRange(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int(n%50) + 1
		a := make([]float64, m)
		b := make([]float64, m)
		for i := range a {
			a[i] = rng.Float64()
			b[i] = rng.Float64()
		}
		r1 := SignTest(a, b, 1e-12)
		r2 := SignTest(b, a, 1e-12)
		if r1.PValue < 0 || r1.PValue > 1 {
			return false
		}
		if r1.Wins != r2.Losses || r1.Losses != r2.Wins {
			return false
		}
		return math.Abs(r1.PValue-r2.PValue) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestBinomCDFAgainstDirectSum cross-checks the log-space CDF against a
// naive computation at small n.
func TestBinomCDFAgainstDirectSum(t *testing.T) {
	for n := 1; n <= 20; n++ {
		for k := -1; k <= n; k++ {
			var want float64
			for i := 0; i <= k; i++ {
				want += choose(n, i) * math.Pow(0.5, float64(n))
			}
			if want > 1 {
				want = 1
			}
			got := binomCDF(k, n)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("binomCDF(%d,%d) = %g, want %g", k, n, got, want)
			}
		}
	}
}

func choose(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	r := 1.0
	for i := 1; i <= k; i++ {
		r *= float64(n - k + i)
		r /= float64(i)
	}
	return r
}

// TestPairedScoresFromRun exercises the PerQuery plumbing end to end:
// evaluate two baselines and run a sign test between them.
func TestPairedScoresFromRun(t *testing.T) {
	g := roadnet.Generate(roadnet.Tiny(91))
	sim := traj.NewSimulator(g, traj.D2Like(91, 200))
	ts := sim.Run()
	qs := make([]Query, 0, 40)
	for _, tr := range ts[:min(40, len(ts))] {
		qs = append(qs, Query{
			Query:  baseline.Query{S: tr.Source(), D: tr.Destination()},
			GT:     tr.Truth,
			DistKm: tr.Truth.Length(g) / 1000,
		})
	}
	algs := []Algorithm{baseline.NewShortest(g), baseline.NewFastest(g)}
	run := Evaluate(g, qs, algs, []float64{1, 2, 5, 20})
	a, b := run.PairedScores("Shortest", "Fastest")
	if len(a) != len(qs) || len(b) != len(qs) {
		t.Fatalf("paired scores %d/%d, want %d", len(a), len(b), len(qs))
	}
	r := SignTest(a, b, 1e-9)
	if r.Wins+r.Losses+r.Ties != len(qs) {
		t.Fatalf("sign test counts don't sum: %+v", r)
	}
	if x, y := run.PairedScores("Shortest", "NoSuchAlgo"); x != nil || y != nil {
		t.Fatal("missing algorithm returned scores")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
