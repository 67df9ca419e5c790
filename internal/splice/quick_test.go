package splice

import (
	"testing"
	"testing/quick"

	"repro/internal/roadnet"
	"repro/internal/traj"
)

// TestQuickSpliceInvariants: over random simulated worlds, every route
// the splicer returns is a valid road path with correct endpoints, and
// all absorption probabilities are proper.
func TestQuickSpliceInvariants(t *testing.T) {
	f := func(seed int64) bool {
		g := roadnet.Generate(roadnet.Tiny(seed % 100))
		ts := traj.NewSimulator(g, traj.D2Like(seed%100+1, 80)).Run()
		paths := make([]roadnet.Path, 0, len(ts))
		for _, tr := range ts {
			paths = append(paths, tr.Truth)
		}
		tg := NewTransitionGraph(g, paths)

		var pairs [][2]roadnet.VertexID
		for i, tr := range ts {
			if i >= 15 {
				break
			}
			pairs = append(pairs, [2]roadnet.VertexID{tr.Source(), tr.Destination()})
		}
		for _, pr := range pairs {
			p, ok := tg.Route(pr[0], pr[1])
			if !ok {
				continue
			}
			if len(p) == 0 || p[0] != pr[0] || p[len(p)-1] != pr[1] {
				return false
			}
			if len(p) > 1 && !p.Valid(g) {
				return false
			}
		}
		if len(pairs) > 0 {
			ab := tg.Absorption(pairs[0][1], 1e-8, 300)
			for _, v := range ab {
				if v < -1e-9 || v > 1+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickProbDistribution: outgoing transition probabilities of every
// covered vertex sum to 1 (or 0 for sinks).
func TestQuickProbDistribution(t *testing.T) {
	g := roadnet.Generate(roadnet.Tiny(41))
	ts := traj.NewSimulator(g, traj.D2Like(41, 120)).Run()
	paths := make([]roadnet.Path, 0, len(ts))
	for _, tr := range ts {
		paths = append(paths, tr.Truth)
	}
	tg := NewTransitionGraph(g, paths)
	for u := 0; u < tg.NumVertices(); u++ {
		var sum float64
		for _, tr := range tg.out[u] {
			sum += tr.count / tg.outTotal[u]
		}
		if tg.outTotal[u] == 0 {
			if len(tg.out[u]) != 0 {
				t.Fatalf("vertex %d has transitions but zero total", u)
			}
			continue
		}
		if sum < 1-1e-9 || sum > 1+1e-9 {
			t.Fatalf("vertex %d: outgoing probabilities sum to %g", u, sum)
		}
	}
}
