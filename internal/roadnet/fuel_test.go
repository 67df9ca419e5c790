package roadnet

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPerKmConvexShape(t *testing.T) {
	m := defaultFuel
	low := m.perKm(10)
	opt := m.perKm(m.optimalSpeed())
	high := m.perKm(180)
	if !(low > opt && high > opt) {
		t.Errorf("consumption not convex: 10km/h=%v opt=%v 180km/h=%v", low, opt, high)
	}
}

func TestOptimalSpeedIsMinimum(t *testing.T) {
	m := defaultFuel
	v := m.optimalSpeed()
	if v < 50 || v > 90 {
		t.Fatalf("optimal speed %v outside plausible band", v)
	}
	eps := 1.0
	if m.perKm(v) > m.perKm(v-eps) || m.perKm(v) > m.perKm(v+eps) {
		t.Errorf("PerKm(%v) is not a local minimum", v)
	}
}

func TestPerKmClampsSpeed(t *testing.T) {
	m := defaultFuel
	if got, want := m.perKm(0), m.perKm(5); got != want {
		t.Errorf("low clamp: %v != %v", got, want)
	}
	if got, want := m.perKm(1e9), m.perKm(200); got != want {
		t.Errorf("high clamp: %v != %v", got, want)
	}
}

func TestEdgeLitersPositiveAndAdditive(t *testing.T) {
	m := defaultFuel
	f := func(lenRaw, speedRaw, stopsRaw float64) bool {
		length := math.Abs(math.Mod(lenRaw, 1e5))
		speed := 5 + math.Abs(math.Mod(speedRaw, 150))
		stops := math.Abs(math.Mod(stopsRaw, 3))
		if math.IsNaN(length) || math.IsNaN(speed) || math.IsNaN(stops) {
			return true
		}
		l := m.edgeLiters(length, speed, stops)
		if l < 0 {
			return false
		}
		// Additivity in length: two halves sum to the whole (stops held
		// at zero).
		whole := m.edgeLiters(length, speed, 0)
		halves := 2 * m.edgeLiters(length/2, speed, 0)
		return math.Abs(whole-halves) < 1e-9*(1+whole)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStopPenaltyCharged(t *testing.T) {
	m := defaultFuel
	with := m.edgeLiters(1000, 50, 2)
	without := m.edgeLiters(1000, 50, 0)
	if diff := with - without; math.Abs(diff-2*m.stopPenalty) > 1e-12 {
		t.Errorf("stop penalty diff = %v want %v", diff, 2*m.stopPenalty)
	}
}
