package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(3, 4), Pt(1, -2)
	if got := p.Add(q); got != Pt(4, 2) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(2, 6) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(6, 8) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dot(q); got != 3-8 {
		t.Errorf("Dot = %v", got)
	}
	if got := p.Cross(q); got != 3*(-2)-4*1 {
		t.Errorf("Cross = %v", got)
	}
	if got := p.Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
}

func TestDistProperties(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Pt(clampF(ax), clampF(ay)), Pt(clampF(bx), clampF(by))
		d := a.Dist(b)
		// Symmetry, non-negativity, and agreement with dx² + dy².
		dx, dy := a.X-b.X, a.Y-b.Y
		return d >= 0 && almostEq(d, b.Dist(a), 1e-9) &&
			almostEq(d*d, dx*dx+dy*dy, math.Max(1e-6, d*d*1e-9))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clampF keeps quick-generated values in a sane numeric range.
func clampF(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1e6)
}

func TestLerpEndpoints(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 20)
	if Lerp(a, b, 0) != a || Lerp(a, b, 1) != b {
		t.Error("Lerp endpoints wrong")
	}
	if Lerp(a, b, 0.5) != Pt(5, 10) {
		t.Error("Lerp midpoint wrong")
	}
}

func TestCentroid(t *testing.T) {
	if Centroid(nil) != (Point{}) {
		t.Error("empty centroid should be zero")
	}
	c := Centroid([]Point{Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)})
	if c != Pt(1, 1) {
		t.Errorf("centroid = %v", c)
	}
}

func TestSegmentProject(t *testing.T) {
	s := Segment{Pt(0, 0), Pt(10, 0)}
	cases := []struct {
		p     Point
		wantQ Point
		wantT float64
	}{
		{Pt(5, 3), Pt(5, 0), 0.5},
		{Pt(-4, 2), Pt(0, 0), 0},
		{Pt(14, -2), Pt(10, 0), 1},
	}
	for _, c := range cases {
		q, tt := s.Project(c.p)
		if q != c.wantQ || !almostEq(tt, c.wantT, 1e-12) {
			t.Errorf("Project(%v) = %v,%v want %v,%v", c.p, q, tt, c.wantQ, c.wantT)
		}
	}
	// Degenerate zero-length segment.
	z := Segment{Pt(1, 1), Pt(1, 1)}
	q, tt := z.Project(Pt(5, 5))
	if q != Pt(1, 1) || tt != 0 {
		t.Error("degenerate projection wrong")
	}
}

func TestProjectionIsClosest(t *testing.T) {
	f := func(px, py float64) bool {
		s := Segment{Pt(0, 0), Pt(100, 50)}
		p := Pt(clampF(px), clampF(py))
		d := s.DistToPoint(p)
		// The projection must not be farther than either endpoint.
		return d <= p.Dist(s.A)+1e-9 && d <= p.Dist(s.B)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRect(t *testing.T) {
	r := NewRect(Pt(5, 1), Pt(1, 7))
	if r.Min != Pt(1, 1) || r.Max != Pt(5, 7) {
		t.Fatalf("NewRect normalize failed: %+v", r)
	}
	if r.Width() != 4 || r.Height() != 6 {
		t.Error("extent wrong")
	}
	e := r.Expand(1)
	if e.Min != Pt(0, 0) || e.Max != Pt(6, 8) {
		t.Error("Expand wrong")
	}
}

func TestBound(t *testing.T) {
	if Bound(nil) != (Rect{}) {
		t.Error("empty bound should be zero")
	}
	b := Bound([]Point{Pt(1, 5), Pt(-2, 3), Pt(4, -1)})
	if b.Min != Pt(-2, -1) || b.Max != Pt(4, 5) {
		t.Errorf("bound = %+v", b)
	}
}

func TestConvexHullSquare(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4), Pt(2, 2), Pt(1, 3)}
	h := ConvexHull(pts)
	if len(h) != 4 {
		t.Fatalf("hull size = %d want 4 (%v)", len(h), h)
	}
	if got := PolygonArea(h); !almostEq(got, 16, 1e-9) {
		t.Errorf("area = %v want 16", got)
	}
	if got := Diameter(h); !almostEq(got, 4*math.Sqrt2, 1e-9) {
		t.Errorf("diameter = %v", got)
	}
}

func TestConvexHullDegenerate(t *testing.T) {
	if h := ConvexHull(nil); len(h) != 0 {
		t.Error("nil hull should be empty")
	}
	if h := ConvexHull([]Point{Pt(1, 1)}); len(h) != 1 {
		t.Error("single point hull")
	}
	// Collinear points collapse to two endpoints.
	h := ConvexHull([]Point{Pt(0, 0), Pt(1, 1), Pt(2, 2), Pt(3, 3)})
	if PolygonArea(h) != 0 {
		t.Error("collinear hull should have zero area")
	}
	if got := Diameter(h); !almostEq(got, 3*math.Sqrt2, 1e-9) {
		t.Errorf("collinear diameter = %v", got)
	}
	// Duplicates are tolerated.
	h = ConvexHull([]Point{Pt(0, 0), Pt(0, 0), Pt(1, 0), Pt(0, 1), Pt(1, 0)})
	if a := PolygonArea(h); !almostEq(a, 0.5, 1e-12) {
		t.Errorf("dup hull area = %v", a)
	}
}

func TestConvexHullContainsAllPoints(t *testing.T) {
	// Property: every input point lies inside or on the hull (checked by
	// the sign of cross products around the CCW hull).
	f := func(seeds []uint16) bool {
		if len(seeds) < 3 {
			return true
		}
		pts := make([]Point, len(seeds))
		for i, s := range seeds {
			pts[i] = Pt(float64(s%251), float64((s/251)%257))
		}
		h := ConvexHull(pts)
		if len(h) < 3 {
			return true // degenerate inputs
		}
		for _, p := range pts {
			for i := range h {
				a, b := h[i], h[(i+1)%len(h)]
				if b.Sub(a).Cross(p.Sub(a)) < -1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHullAreaDiameter(t *testing.T) {
	area, diam := HullAreaDiameter([]Point{Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)})
	if !almostEq(area, 4, 1e-9) || !almostEq(diam, 2*math.Sqrt2, 1e-9) {
		t.Errorf("area=%v diam=%v", area, diam)
	}
}

func TestPolylineLength(t *testing.T) {
	pl := Polyline{Pt(0, 0), Pt(3, 0), Pt(3, 4)}
	if got := pl.Length(); got != 7 {
		t.Errorf("length = %v", got)
	}
	if (Polyline{}).Length() != 0 || (Polyline{Pt(1, 2)}).Length() != 0 {
		t.Error("degenerate polyline lengths")
	}
}

func TestBandMatchPerfect(t *testing.T) {
	gt := Polyline{Pt(0, 0), Pt(100, 0), Pt(100, 100)}
	wps := gt.Resample(10)
	m := MatchBand(gt, wps, 10)
	if m.MatchedWaypoints != len(wps) {
		t.Errorf("matched %d of %d waypoints", m.MatchedWaypoints, len(wps))
	}
	if s := m.Similarity(); !almostEq(s, 1, 1e-6) {
		t.Errorf("similarity = %v want 1", s)
	}
}

func TestBandMatchFarPath(t *testing.T) {
	gt := Polyline{Pt(0, 0), Pt(100, 0)}
	// Way-points parallel but 50 m away: outside a 10 m band.
	wps := []Point{Pt(0, 50), Pt(50, 50), Pt(100, 50)}
	m := MatchBand(gt, wps, 10)
	if m.MatchedWaypoints != 0 || m.Similarity() != 0 {
		t.Errorf("expected zero match, got %+v", m)
	}
}

func TestBandMatchPartial(t *testing.T) {
	gt := Polyline{Pt(0, 0), Pt(200, 0)}
	// First half follows the path, second half diverges.
	wps := []Point{Pt(0, 2), Pt(50, -3), Pt(100, 1), Pt(130, 60), Pt(180, 90)}
	m := MatchBand(gt, wps, 10)
	if m.MatchedWaypoints != 3 {
		t.Fatalf("matched waypoints = %d want 3", m.MatchedWaypoints)
	}
	if s := m.Similarity(); s < 0.45 || s > 0.55 {
		t.Errorf("similarity = %v want ≈0.5", s)
	}
}

func TestBandMatchDegenerate(t *testing.T) {
	if m := MatchBand(nil, []Point{Pt(0, 0)}, 10); m.Similarity() != 0 {
		t.Error("nil ground truth should score 0")
	}
	gt := Polyline{Pt(0, 0), Pt(10, 0)}
	if m := MatchBand(gt, nil, 10); m.Similarity() != 0 {
		t.Error("no waypoints should score 0")
	}
}

func TestResample(t *testing.T) {
	pl := Polyline{Pt(0, 0), Pt(100, 0)}
	out := pl.Resample(25)
	if len(out) < 4 || out[0] != Pt(0, 0) || out[len(out)-1] != Pt(100, 0) {
		t.Fatalf("resample = %v", out)
	}
	for i := 1; i < len(out); i++ {
		if d := out[i-1].Dist(out[i]); d > 25+1e-9 {
			t.Errorf("gap %v > step", d)
		}
	}
	// Step <= 0 returns a copy.
	cp := pl.Resample(0)
	if len(cp) != len(pl) {
		t.Error("step 0 should copy")
	}
}
