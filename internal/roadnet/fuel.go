package roadnet

import "math"

// fuelModel is the speed-based vehicular environmental-impact model that
// gives every edge its fuel-consumption (FC) weight. The paper computes
// FC "based on speed limits using vehicular environmental impact models"
// (Ecomark / Ecomark 2.0); this reproduces the standard shape of such
// models, a consumption curve
//
//	liters/km(v) = a/v + b + c*v²
//
// in the speed v (km/h), convex with its minimum in the 60–80 km/h
// range, plus a per-stop penalty that charges low-class roads for their
// intersections. The a/v term captures idle-dominated city driving, the
// c*v² term aerodynamic drag at high speed.
type fuelModel struct {
	a float64 // idle term, L·h/km² — dominates at low speed
	b float64 // rolling resistance baseline, L/km
	c float64 // drag term, L·h²/km³ — dominates at high speed

	// stopPenalty is the extra consumption (liters) charged for each
	// expected stop along an edge; intersections on minor roads are the
	// main source.
	stopPenalty float64
}

// defaultFuel is the passenger-vehicle model every Builder uses,
// calibrated so that the minimum sits near 70 km/h at roughly
// 0.055 L/km (~5.5 L/100km), a typical passenger-car figure.
var defaultFuel = fuelModel{a: 1.20, b: 0.030, c: 4.0e-6, stopPenalty: 0.008}

// perKm returns the cruising consumption in liters per kilometer at the
// given speed (km/h). Speeds are clamped to [5, 200] to keep the 1/v term
// finite on degenerate inputs.
func (m fuelModel) perKm(speedKmh float64) float64 {
	v := math.Min(math.Max(speedKmh, 5), 200)
	return m.a/v + m.b + m.c*v*v
}

// edgeLiters returns the fuel consumed traversing an edge of the given
// length (meters) at the given speed limit (km/h), with expectedStops
// expected stops (fractional values allowed; e.g. a residential edge may
// carry 0.5 expected stops).
func (m fuelModel) edgeLiters(lengthM, speedKmh, expectedStops float64) float64 {
	return m.perKm(speedKmh)*lengthM/1000 + m.stopPenalty*expectedStops
}

// optimalSpeed returns the speed (km/h) minimizing perKm. For the default
// coefficients this is about 67 km/h, which is why highway-heavy paths
// are usually — but not always — fuel-optimal.
func (m fuelModel) optimalSpeed() float64 {
	// d/dv (a/v + b + cv²) = -a/v² + 2cv = 0  =>  v³ = a/(2c).
	return math.Cbrt(m.a / (2 * m.c))
}
