package traj

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

// GPS is a single GPS record: a timestamp (seconds since the epoch of the
// simulation) and a position.
type GPS struct {
	T float64
	P geo.Point
}

// Trajectory is a time-ordered sequence of GPS records for one trip,
// plus metadata. Truth carries the ground-truth road-network path the
// synthetic driver actually followed; the paper obtains the equivalent by
// map matching, and our pipeline does too — Truth exists so tests can
// verify the map matcher and so evaluation has exact ground truth.
type Trajectory struct {
	ID     int
	Driver int
	// Depart is the departure time in seconds since simulation start.
	Depart float64
	// Peak reports whether the trip departs in a peak period.
	Peak bool
	// Records are the raw GPS samples.
	Records []GPS
	// Truth is the ground-truth path in the road network.
	Truth roadnet.Path
	// Matched is the map-matched path; filled in by the pipeline.
	Matched roadnet.Path
}

// Source returns the first ground-truth vertex.
func (t *Trajectory) Source() roadnet.VertexID { return t.Truth[0] }

// Destination returns the last ground-truth vertex.
func (t *Trajectory) Destination() roadnet.VertexID { return t.Truth[len(t.Truth)-1] }

// Path returns the best available road-network path: the map-matched
// path when present, otherwise the ground truth.
func (t *Trajectory) Path() roadnet.Path {
	if len(t.Matched) >= 2 {
		return t.Matched
	}
	return t.Truth
}

// Points returns the raw GPS record positions in order — the form the
// map matcher (offline Match or the streaming OnlineMatcher) consumes.
func (t *Trajectory) Points() []geo.Point {
	out := make([]geo.Point, len(t.Records))
	for i, r := range t.Records {
		out[i] = r.P
	}
	return out
}

// Duration returns the time between first and last record, in seconds.
func (t *Trajectory) Duration() float64 {
	if len(t.Records) < 2 {
		return 0
	}
	return t.Records[len(t.Records)-1].T - t.Records[0].T
}

// Split partitions trajectories into train and test sets by departure
// time: everything departing before cutoff goes to train. The paper
// splits D1 at 18 of 24 months and D2 at 21 of 28 days; callers pass the
// equivalent fraction of the simulated horizon.
func Split(ts []*Trajectory, cutoff float64) (train, test []*Trajectory) {
	for _, t := range ts {
		if t.Depart < cutoff {
			train = append(train, t)
		} else {
			test = append(test, t)
		}
	}
	return train, test
}

// DistanceBucket describes one row of a Table II-style histogram.
type DistanceBucket struct {
	// LoKm (exclusive) and HiKm (inclusive) bound the bucket in km.
	LoKm, HiKm float64
	Count      int
	Percent    float64
}

// Label renders the bucket bound like the paper, e.g. "(0,10]".
func (b DistanceBucket) Label() string {
	return fmt.Sprintf("(%g,%g]", b.LoKm, b.HiKm)
}

// DistanceHistogram computes trajectory counts per ground-truth travel
// distance bucket. Bounds are in km, ascending; a trajectory longer than
// the last bound is counted in the final bucket.
func DistanceHistogram(g *roadnet.Graph, ts []*Trajectory, boundsKm []float64) []DistanceBucket {
	out := make([]DistanceBucket, len(boundsKm))
	lo := 0.0
	for i, hi := range boundsKm {
		out[i] = DistanceBucket{LoKm: lo, HiKm: hi}
		lo = hi
	}
	total := 0
	for _, t := range ts {
		km := t.Truth.Length(g) / 1000
		idx := len(out) - 1
		for i, b := range out {
			if km <= b.HiKm {
				idx = i
				break
			}
		}
		out[idx].Count++
		total++
	}
	if total > 0 {
		for i := range out {
			out[i].Percent = 100 * float64(out[i].Count) / float64(total)
		}
	}
	return out
}

// MeanDistanceKm returns the mean ground-truth travel distance.
func MeanDistanceKm(g *roadnet.Graph, ts []*Trajectory) float64 {
	if len(ts) == 0 {
		return 0
	}
	var s float64
	for _, t := range ts {
		s += t.Truth.Length(g)
	}
	return s / float64(len(ts)) / 1000
}
