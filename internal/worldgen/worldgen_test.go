package worldgen

import (
	"bytes"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

// TestConnectedAcrossScalesAndSeeds is the connectivity invariant:
// every graph Build hands out is one connected component, whatever the
// scale or seed.
func TestConnectedAcrossScalesAndSeeds(t *testing.T) {
	for _, name := range []string{ScaleBench, ScaleCI} {
		for seed := int64(1); seed <= 4; seed++ {
			g, _ := BuildGraph(MustScale(name, seed))
			if got := len(components(g)); got != 1 {
				t.Errorf("scale %s seed %d: %d components, want 1", name, seed, got)
			}
		}
	}
	for _, n := range []int{300, 2000, 8000} {
		g, _ := BuildGraph(ForVertices(n, 7))
		if got := len(components(g)); got != 1 {
			t.Errorf("ForVertices(%d): %d components, want 1", n, got)
		}
	}
}

// TestRepairSplicesComponents drives the repair pass directly on a
// hand-built two-island graph: components must be detected and the
// rebuilt graph must be connected with exactly one new bidirectional
// link, everything else byte-identical.
func TestRepairSplicesComponents(t *testing.T) {
	b := roadnet.NewBuilder()
	var left, right []roadnet.VertexID
	for i := 0; i < 4; i++ {
		left = append(left, b.AddVertex(pt(float64(i)*100, 0)))
	}
	for i := 0; i < 4; i++ {
		right = append(right, b.AddVertex(pt(5000+float64(i)*100, 0)))
	}
	for i := 1; i < 4; i++ {
		b.AddRoad(left[i-1], left[i], roadnet.Residential)
		b.AddRoad(right[i-1], right[i], roadnet.Residential)
	}
	g := b.Build()
	comps := components(g)
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	fixed := repair(g, comps)
	if got := len(components(fixed)); got != 1 {
		t.Fatalf("after repair: %d components, want 1", got)
	}
	if fixed.NumVertices() != g.NumVertices() {
		t.Errorf("repair changed vertex count: %d -> %d", g.NumVertices(), fixed.NumVertices())
	}
	if want := g.NumEdges() + 2; fixed.NumEdges() != want {
		t.Errorf("repair edges = %d, want %d (one bidirectional link)", fixed.NumEdges(), want)
	}
	// Original edges survive the rebuild byte-identically.
	for e := 0; e < g.NumEdges(); e++ {
		if g.Edge(roadnet.EdgeID(e)) != fixed.Edge(roadnet.EdgeID(e)) {
			t.Fatalf("edge %d changed across repair: %+v -> %+v",
				e, g.Edge(roadnet.EdgeID(e)), fixed.Edge(roadnet.EdgeID(e)))
		}
	}
}

// TestSeedStability is the determinism invariant: one Spec, two
// Builds, byte-identical TSV serialization and equal fingerprints —
// and a different seed diverges.
func TestSeedStability(t *testing.T) {
	spec := MustScale(ScaleCI, 3)
	g1, _ := BuildGraph(spec)
	g2, _ := BuildGraph(spec)
	if Fingerprint(g1) != Fingerprint(g2) {
		t.Fatalf("same spec, different fingerprints: %x vs %x", Fingerprint(g1), Fingerprint(g2))
	}
	var b1, b2 bytes.Buffer
	if err := roadnet.WriteTSV(&b1, g1); err != nil {
		t.Fatal(err)
	}
	if err := roadnet.WriteTSV(&b2, g2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("same spec serialized to different bytes")
	}
	g3, _ := BuildGraph(MustScale(ScaleCI, 4))
	if Fingerprint(g1) == Fingerprint(g3) {
		t.Fatal("different seeds produced identical graphs")
	}
}

// TestTrajectorySetDeterminism extends seed stability through the
// simulator: the same Spec yields the same trips with the same
// ground-truth paths.
func TestTrajectorySetDeterminism(t *testing.T) {
	spec := MustScale(ScaleBench, 5)
	w1, w2 := Build(spec), Build(spec)
	if len(w1.All) == 0 {
		t.Fatal("no trajectories generated")
	}
	if len(w1.All) != len(w2.All) {
		t.Fatalf("trip counts differ: %d vs %d", len(w1.All), len(w2.All))
	}
	if len(w1.Train) == 0 || len(w1.Test) == 0 {
		t.Fatalf("degenerate split: %d train / %d test", len(w1.Train), len(w1.Test))
	}
	for i := range w1.All {
		a, b := w1.All[i], w2.All[i]
		if a.ID != b.ID || a.Depart != b.Depart || len(a.Truth) != len(b.Truth) {
			t.Fatalf("trip %d diverged: %v/%v vs %v/%v", i, a.ID, a.Depart, b.ID, b.Depart)
		}
		for j := range a.Truth {
			if a.Truth[j] != b.Truth[j] {
				t.Fatalf("trip %d truth path diverged at %d", i, j)
			}
		}
	}
}

// TestScaleMonotone is the sizing invariant: a larger vertex target
// never yields a smaller graph, and the named ladder ascends.
func TestScaleMonotone(t *testing.T) {
	targets := []int{300, 1200, 5000}
	prev := -1
	for _, n := range targets {
		g, _ := BuildGraph(ForVertices(n, 5))
		if g.NumVertices() <= prev {
			t.Errorf("ForVertices(%d) = %d vertices, not larger than previous %d", n, g.NumVertices(), prev)
		}
		prev = g.NumVertices()
	}
	bench, _ := BuildGraph(MustScale(ScaleBench, 5))
	ci, _ := BuildGraph(MustScale(ScaleCI, 5))
	if bench.NumVertices() >= ci.NumVertices() {
		t.Errorf("scale ladder not ascending: bench %d >= ci %d", bench.NumVertices(), ci.NumVertices())
	}
}

// TestBenchScaleMatchesHistoricalWorld pins the "bench" scale to the
// exact generator inputs bench_test.go used before the worldgen
// migration, so bench numbers recorded over the PRs stay comparable.
func TestBenchScaleMatchesHistoricalWorld(t *testing.T) {
	spec := MustScale(ScaleBench, 5)
	if spec.Net != roadnet.Tiny(5) {
		t.Errorf("bench net config drifted from roadnet.Tiny(5): %+v", spec.Net)
	}
	legacy := roadnet.Generate(roadnet.Tiny(5))
	g, repaired := BuildGraph(spec)
	if repaired != 0 {
		t.Fatalf("bench world needed %d repairs; the historical world was connected", repaired)
	}
	if Fingerprint(g) != Fingerprint(legacy) {
		t.Fatal("bench world no longer byte-identical to roadnet.Generate(roadnet.Tiny(5))")
	}
}

func pt(x, y float64) geo.Point { return geo.Pt(x, y) }
