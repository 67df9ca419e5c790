package spatial

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

func gridGraph() *roadnet.Graph {
	return roadnet.GenerateGrid(10, 10, 100, roadnet.Tertiary)
}

func TestEdgesWithinMatchesBruteForce(t *testing.T) {
	g := gridGraph()
	idx := NewIndex(g, 120)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 100; i++ {
		p := geo.Pt(rng.Float64()*900, rng.Float64()*900)
		radius := 40 + rng.Float64()*80
		got := idx.EdgesWithin(p, radius)
		gotSet := make(map[roadnet.EdgeID]bool, len(got))
		for _, c := range got {
			gotSet[c.Edge] = true
			if c.Dist > radius {
				t.Fatalf("candidate beyond radius: %v > %v", c.Dist, radius)
			}
		}
		// Brute force.
		for e := roadnet.EdgeID(0); int(e) < g.NumEdges(); e++ {
			ed := g.Edge(e)
			seg := geo.Segment{A: g.Point(ed.From), B: g.Point(ed.To)}
			if seg.DistToPoint(p) <= radius && !gotSet[e] {
				t.Fatalf("edge %d within %v missed", e, radius)
			}
		}
	}
}

func TestEdgesWithinSorted(t *testing.T) {
	g := gridGraph()
	idx := NewIndex(g, 200)
	cands := idx.EdgesWithin(geo.Pt(450, 450), 200)
	if len(cands) == 0 {
		t.Fatal("no candidates at grid center")
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].Dist < cands[i-1].Dist {
			t.Fatal("candidates not sorted by distance")
		}
	}
}

func TestEdgesWithinEmptyFarAway(t *testing.T) {
	g := gridGraph()
	idx := NewIndex(g, 100)
	if cands := idx.EdgesWithin(geo.Pt(1e6, 1e6), 50); len(cands) != 0 {
		t.Fatalf("expected no candidates, got %d", len(cands))
	}
}

func TestCandidateProjectionGeometry(t *testing.T) {
	g := gridGraph()
	idx := NewIndex(g, 100)
	// Point just off the middle of a horizontal edge.
	p := geo.Pt(150, 205)
	cands := idx.EdgesWithin(p, 30)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	c := cands[0]
	if math.Abs(c.Dist-5) > 1e-9 {
		t.Errorf("closest distance = %v want 5", c.Dist)
	}
	if c.Frac <= 0 || c.Frac >= 1 {
		t.Errorf("frac = %v should be interior", c.Frac)
	}
	if c.Proj.Dist(geo.Pt(150, 200)) > 1e-9 {
		t.Errorf("projection = %v", c.Proj)
	}
}
