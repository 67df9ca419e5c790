package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket geometry: 33 power-of-two octaves of microseconds
// (1µs up to ~1.2h), each split into histSub linear sub-buckets —
// "quarter-log2". Bucket width is at most 25% of the bucket's lower
// bound, so any statistic read off bucket boundaries is within 25% of
// the truth; Quantile interpolates inside the bucket and is typically
// much closer.
const (
	histOctaves = 33
	histSub     = 4
	histBuckets = histOctaves * histSub
)

// Histogram is a lock-free quarter-log2 latency histogram, safe for
// concurrent Observe under full query traffic. The zero value is ready
// to use.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sumNs   atomic.Uint64
}

// bucketIndex maps a microsecond value to its bucket: octave o =
// position of the highest set bit, sub-bucket = the next two mantissa
// bits (linear quarters of the octave).
func bucketIndex(us uint64) int {
	if us <= 1 {
		return 0
	}
	o := bits.Len64(us) - 1
	if o >= histOctaves {
		return histBuckets - 1
	}
	var sub uint64
	if o >= 2 {
		sub = (us >> (o - 2)) & 3
	} else { // o == 1: us in {2, 3} → quarters 0 and 2
		sub = (us - 2) << 1
	}
	return o*histSub + int(sub)
}

// bucketBounds returns bucket i's [lower, upper) bounds in microseconds.
func bucketBounds(i int) (lo, hi float64) {
	o, s := i/histSub, i%histSub
	base := float64(uint64(1) << o)
	return base * (1 + float64(s)/histSub), base * (1 + float64(s+1)/histSub)
}

// BucketUpperBoundSeconds returns bucket i's exclusive upper bound in
// seconds — the Prometheus `le` label value for that bucket.
func BucketUpperBoundSeconds(i int) float64 {
	_, hi := bucketBounds(i)
	return hi / 1e6
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	us := uint64(d.Microseconds())
	h.buckets[bucketIndex(us)].Add(1)
	h.count.Add(1)
	h.sumNs.Add(uint64(d.Nanoseconds()))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// SumSeconds returns the sum of all observed durations in seconds.
func (h *Histogram) SumSeconds() float64 { return float64(h.sumNs.Load()) / 1e9 }

// Mean returns the mean observed duration.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumNs.Load() / n)
}

// Quantile estimates the q-quantile (0 < q <= 1) by locating the
// bucket holding the target rank and interpolating linearly inside it
// (observations assumed uniform within the bucket). The estimate is
// within one bucket width of the true value — at most 25% relative
// error, and unbiased rather than the systematic over-report of a
// bucket-upper-bound read-out.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var seen uint64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		if seen+c >= target {
			lo, hi := bucketBounds(i)
			frac := float64(target-seen) / float64(c)
			return time.Duration((lo + frac*(hi-lo)) * float64(time.Microsecond))
		}
		seen += c
	}
	_, hi := bucketBounds(histBuckets - 1)
	return time.Duration(hi * float64(time.Microsecond))
}

// Merge folds other's observations into h bucket-by-bucket. Both
// histograms may be concurrently observed while merging: each counter
// is read once, so the merged view is as consistent as any concurrent
// read of a live histogram (counts may trail the buckets by in-flight
// observations, never the reverse by more than one scrape). The fleet
// stats path uses Merge to compute true cross-tenant quantiles from
// per-tenant histograms — quantiles, unlike counters, cannot be summed
// after the fact.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	for i := range other.buckets {
		if c := other.buckets[i].Load(); c > 0 {
			h.buckets[i].Add(c)
		}
	}
	h.count.Add(other.count.Load())
	h.sumNs.Add(other.sumNs.Load())
}

// Cumulative returns the cumulative bucket counts (Prometheus
// `_bucket` semantics: cum[i] = observations ≤ bucket i's upper bound)
// along with the index range [first, last] of non-empty buckets; first
// == -1 when the histogram is empty. An exposition writer can emit
// just the non-empty range plus +Inf and stay a valid Prometheus
// histogram.
func (h *Histogram) Cumulative() (cum []uint64, first, last int) {
	cum = make([]uint64, histBuckets)
	first, last = -1, -1
	var run uint64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		if c > 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
		run += c
		cum[i] = run
	}
	return cum, first, last
}
