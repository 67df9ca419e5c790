package spatial

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

// quickNet builds a random scattered network for index property tests.
func quickNet(seed int64, n int) *roadnet.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := roadnet.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddVertex(geo.Point{X: rng.Float64() * 4000, Y: rng.Float64() * 4000})
	}
	for i := 1; i < n; i++ {
		b.AddRoad(roadnet.VertexID(i-1), roadnet.VertexID(i), roadnet.Residential)
	}
	return b.Build()
}

// TestQuickEdgesWithinRadius: every candidate returned by EdgesWithin
// is genuinely within the radius of the query point (distance to the
// segment, not endpoints), and candidates are sorted by distance.
func TestQuickEdgesWithinRadius(t *testing.T) {
	f := func(seed int64, r8 uint8) bool {
		g := quickNet(seed, 30)
		idx := NewIndex(g, 300)
		radius := 50 + float64(r8)*4
		rng := rand.New(rand.NewSource(seed + 7))
		q := geo.Point{X: rng.Float64() * 4000, Y: rng.Float64() * 4000}
		cands := idx.EdgesWithin(q, radius)
		prev := -1.0
		for _, c := range cands {
			if c.Dist > radius+1e-9 {
				return false
			}
			if c.Dist < prev-1e-9 {
				return false // not sorted
			}
			prev = c.Dist
			// Verify the reported distance against segment geometry.
			e := g.Edge(c.Edge)
			seg := geo.Segment{A: g.Point(e.From), B: g.Point(e.To)}
			if math.Abs(seg.DistToPoint(q)-c.Dist) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
