package mapmatch

import (
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/route"
	"repro/internal/spatial"
	"repro/internal/traj"
)

func pathsEqual(a, b roadnet.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestOnlineEqualsOfflineOnSim is the core equivalence property: on
// simulated GPS feeds, incremental decoding (Match is the decoder run
// to completion) must return exactly the path the whole-trajectory
// reference pass (matchReference, reference_test.go) returns.
func TestOnlineEqualsOfflineOnSim(t *testing.T) {
	g := roadnet.Generate(roadnet.Tiny(8))
	sim := traj.NewSimulator(g, traj.D2Like(5, 30))
	ts := sim.Run()
	if len(ts) < 15 {
		t.Fatalf("simulator made only %d trips", len(ts))
	}
	m := NewMatcher(g, spatial.NewIndex(g, 250), Config{SigmaM: 15})
	matched := 0
	for _, tr := range ts {
		pts := make([]geo.Point, len(tr.Records))
		for i, r := range tr.Records {
			pts[i] = r.P
		}
		want := m.matchReference(pts)
		got := m.Match(pts)
		if !pathsEqual(got, want) {
			t.Fatalf("trip %d: online %v != reference %v", tr.ID, got, want)
		}
		if len(want) >= 2 {
			matched++
		}
	}
	if matched < len(ts)/2 {
		t.Fatalf("only %d/%d trips matched; equivalence test has no teeth", matched, len(ts))
	}
}

// TestOnlineEqualsOfflineNoisyGrid covers higher noise levels, where
// candidate sets are wide and the stable prefix converges late.
func TestOnlineEqualsOfflineNoisyGrid(t *testing.T) {
	g := roadnet.GenerateGrid(8, 8, 120, roadnet.Tertiary)
	truth, _, ok := route.NewEngine(g).Shortest(0, 63)
	if !ok {
		t.Fatal("no truth path")
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, noise := range []float64{5, 18} {
			pts := noisyWalk(g, truth, 22, noise, rng)
			m := NewMatcher(g, spatial.NewIndex(g, 200), Config{SigmaM: 20})
			want := m.matchReference(pts)
			got := m.Match(pts)
			if !pathsEqual(got, want) {
				t.Fatalf("seed %d noise %.0f: online %v != reference %v", seed, noise, got, want)
			}
		}
	}
}

// TestOnlineEqualsOfflineBrokenTransition uses two disconnected road
// components: a feed that hops between them breaks every transition,
// and the reference pass keeps only the prefix before the break. The
// incremental decoder must return the same prefix.
func TestOnlineEqualsOfflineBrokenTransition(t *testing.T) {
	b := roadnet.NewBuilder()
	// Component A: a 4-vertex chain along y=0.
	for i := 0; i < 4; i++ {
		b.AddVertex(geo.Pt(float64(i)*100, 0))
	}
	// Component B: a 4-vertex chain along y=400, not connected to A.
	for i := 0; i < 4; i++ {
		b.AddVertex(geo.Pt(float64(i)*100, 400))
	}
	for i := 0; i < 3; i++ {
		b.AddRoad(roadnet.VertexID(i), roadnet.VertexID(i+1), roadnet.Tertiary)
		b.AddRoad(roadnet.VertexID(i+4), roadnet.VertexID(i+5), roadnet.Tertiary)
	}
	g := b.Build()
	m := NewMatcher(g, spatial.NewIndex(g, 200), Config{})
	// Consecutive points are at least 90 m apart: thinning keeps them all.
	pts := []geo.Point{
		geo.Pt(5, 3), geo.Pt(95, -2), geo.Pt(205, 4), // along A
		geo.Pt(105, 398), geo.Pt(210, 402), // jump to B: unreachable
	}
	want := m.matchReference(pts)
	got := m.Match(pts)
	if !pathsEqual(got, want) {
		t.Fatalf("online %v != reference %v", got, want)
	}
	if len(want) < 2 {
		t.Fatalf("reference kept no prefix (%v); scenario is degenerate", want)
	}
}

// TestOnlineDegenerateInputs mirrors the reference's edge cases: no
// usable points, far-from-road points, and a single usable point.
func TestOnlineDegenerateInputs(t *testing.T) {
	g := roadnet.GenerateGrid(4, 4, 100, roadnet.Tertiary)
	m := matcherOver(g)
	if got := m.NewOnline().Close(); got != nil {
		t.Fatalf("empty decode returned %v", got)
	}
	far := []geo.Point{geo.Pt(1e7, 1e7), geo.Pt(1e7, 1e7+50)}
	if got := m.Match(far); got != nil {
		t.Fatalf("far input matched: %v", got)
	}
	single := []geo.Point{geo.Pt(150, 2)}
	want := m.matchReference(single)
	got := m.Match(single)
	if !pathsEqual(got, want) || len(got) != 2 {
		t.Fatalf("single point: online %v != reference %v", got, want)
	}
}

// TestOnlineStablePrefix checks the streaming guarantee: the committed
// prefix only grows, is always a prefix of the final path, and does
// commit before the trajectory ends (bounded memory).
func TestOnlineStablePrefix(t *testing.T) {
	g := roadnet.GenerateGrid(8, 8, 120, roadnet.Tertiary)
	truth, _, ok := route.NewEngine(g).Shortest(0, 63)
	if !ok {
		t.Fatal("no truth path")
	}
	rng := rand.New(rand.NewSource(3))
	pts := noisyWalk(g, truth, 20, 5, rng)
	m := matcherOver(g)
	o := m.NewOnline()
	var prev roadnet.Path
	committedEarly := false
	for i, p := range pts {
		o.Observe(p)
		cur := o.StablePrefix()
		if len(cur) < len(prev) || !pathsEqual(cur[:len(prev)], prev) {
			t.Fatalf("prefix shrank or rewrote at point %d: %v -> %v", i, prev, cur)
		}
		prev = cur
		if i < len(pts)-1 && len(cur) > 0 {
			committedEarly = true
		}
	}
	final := o.Close()
	if len(final) < 2 {
		t.Fatal("decode failed")
	}
	if !pathsEqual(final[:len(prev)], prev) {
		t.Fatalf("final path does not extend committed prefix: %v vs %v", prev, final)
	}
	if !committedEarly {
		t.Fatal("no prefix committed before the end; incremental emission is not happening")
	}
	if !pathsEqual(final, m.matchReference(pts)) {
		t.Fatal("closed path differs from the reference match")
	}
}
