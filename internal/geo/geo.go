package geo

import (
	"fmt"
	"math"
)

// Point is a location in the plane, in meters.
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by f.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// Dot returns the dot product of p and q viewed as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z component of the cross product p × q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y) }

// Lerp linearly interpolates between p and q; t=0 gives p, t=1 gives q.
func Lerp(p, q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Centroid returns the arithmetic mean of the points. It returns the zero
// point for an empty slice.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		return Point{}
	}
	var c Point
	for _, p := range pts {
		c.X += p.X
		c.Y += p.Y
	}
	n := float64(len(pts))
	return Point{c.X / n, c.Y / n}
}

// Segment is a directed line segment from A to B.
type Segment struct {
	A, B Point
}

// Length returns the Euclidean length of the segment.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// Project returns the point on the segment closest to p along with the
// normalized parameter t in [0, 1] such that the projection equals
// Lerp(A, B, t).
func (s Segment) Project(p Point) (Point, float64) {
	d := s.B.Sub(s.A)
	l2 := d.Dot(d)
	if l2 == 0 {
		return s.A, 0
	}
	t := p.Sub(s.A).Dot(d) / l2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return Lerp(s.A, s.B, t), t
}

// DistToPoint returns the distance from p to the closest point on s.
func (s Segment) DistToPoint(p Point) float64 {
	q, _ := s.Project(p)
	return p.Dist(q)
}

// Rect is an axis-aligned rectangle. Min is the lower-left corner and Max
// the upper-right corner.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Expand returns r grown by m meters on every side.
func (r Rect) Expand(m float64) Rect {
	return Rect{
		Min: Point{r.Min.X - m, r.Min.Y - m},
		Max: Point{r.Max.X + m, r.Max.Y + m},
	}
}

// Bound returns the bounding rectangle of the points. It returns the zero
// rectangle for an empty slice.
func Bound(pts []Point) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r.Min.X = math.Min(r.Min.X, p.X)
		r.Min.Y = math.Min(r.Min.Y, p.Y)
		r.Max.X = math.Max(r.Max.X, p.X)
		r.Max.Y = math.Max(r.Max.Y, p.Y)
	}
	return r
}
