package obs

import (
	"math"
	"sync"
)

// Rolling is a fixed-capacity rolling window over unitless samples
// (similarity scores, ratios) — the bounded companion to Histogram for
// values that are not durations and where only the recent past
// matters: a model-quality gauge must reflect the router being served
// *now*, not be averaged flat by a week of history. Observe overwrites
// the oldest sample once the window is full.
//
// Rolling is mutex-protected rather than lock-free: its writers are
// off-hot-path observers (the shadow scorer), and its readers scrape-
// frequency stats calls.
type Rolling struct {
	mu   sync.Mutex
	buf  []float64
	next int
	n    int
}

// NewRolling returns a window holding the last `window` samples
// (default 256 when non-positive).
func NewRolling(window int) *Rolling {
	if window <= 0 {
		window = 256
	}
	return &Rolling{buf: make([]float64, window)}
}

// Observe records one sample, evicting the oldest when full.
func (r *Rolling) Observe(v float64) {
	r.mu.Lock()
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Mean returns the mean of the samples in the window (0 when empty).
// Summation is done on read — the window is small and read at scrape
// frequency, and an exact sum beats maintaining a drifting running
// total.
func (r *Rolling) Mean() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range r.buf[:r.n] {
		sum += v
	}
	return sum / float64(r.n)
}

// Min returns the smallest sample in the window (0 when empty).
func (r *Rolling) Min() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return 0
	}
	min := math.Inf(1)
	for _, v := range r.buf[:r.n] {
		if v < min {
			min = v
		}
	}
	return min
}
