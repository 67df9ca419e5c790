package obs

import (
	"math/rand"
	"testing"
	"time"
)

// A merged histogram must be indistinguishable from one that observed
// the union of both sample sets.
func TestHistogramMergeEqualsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var a, b, union Histogram
	for i := 0; i < 4000; i++ {
		d := time.Duration(rng.Int63n(int64(50 * time.Millisecond)))
		if i%3 == 0 {
			a.Observe(d)
		} else {
			b.Observe(d)
		}
		union.Observe(d)
	}

	var merged Histogram
	merged.Merge(&a)
	merged.Merge(&b)

	if merged.Count() != union.Count() {
		t.Fatalf("Count = %d want %d", merged.Count(), union.Count())
	}
	if got, want := merged.SumSeconds(), union.SumSeconds(); got != want {
		t.Fatalf("SumSeconds = %v want %v", got, want)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if got, want := merged.Quantile(q), union.Quantile(q); got != want {
			t.Fatalf("Quantile(%v) = %v want %v", q, got, want)
		}
	}
	if got, want := merged.Mean(), union.Mean(); got != want {
		t.Fatalf("Mean = %v want %v", got, want)
	}
}

func TestHistogramMergeNilAndEmpty(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	h.Merge(nil)
	h.Merge(&Histogram{})
	if h.Count() != 1 {
		t.Fatalf("Count = %d want 1", h.Count())
	}
}

func TestRollingWindow(t *testing.T) {
	r := NewRolling(4)
	if r.Mean() != 0 || r.Min() != 0 {
		t.Fatal("empty window should report zeros")
	}
	r.Observe(3)
	r.Observe(5)
	// A window that is not yet full averages only what it holds.
	if got := r.Mean(); got != 4 {
		t.Fatalf("Mean of 3, 5 = %v want 4", got)
	}
	for i := 1; i <= 10; i++ {
		r.Observe(float64(i))
	}
	// Window holds the last 4 observations: 7, 8, 9, 10.
	if got := r.Mean(); got != 8.5 {
		t.Fatalf("Mean = %v want 8.5", got)
	}
	if got := r.Min(); got != 7 {
		t.Fatalf("Min = %v want 7", got)
	}
}
