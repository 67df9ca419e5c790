package transfer_test

import (
	"fmt"
	"testing"

	"repro/internal/roadnet"
	"repro/internal/transfer"
	"repro/internal/worldgen"
)

// windowAMRs are the thresholds the window tests sweep: the Fig. 9(b)
// range, the top of it, and one no pair reaches.
var windowAMRs = []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1, 1.01}

// checkWindows holds the windows over feats at each amr to all-pairs
// scoring: row i's members are exactly the j ≠ i with ReSim(i, j) ≥ amr,
// each once. It returns the unordered pair count per amr.
func checkWindows(t *testing.T, feats []transfer.Features, amrs []float64) []int {
	t.Helper()
	n := len(feats)
	members := make([][][]int, len(amrs))
	for a, amr := range amrs {
		members[a] = transfer.WindowMembers(feats, amr, 8)
	}
	pairs := make([]int, len(amrs))
	sims := make([]float64, n)
	in := make([]bool, n)
	for i := range feats {
		for j := range feats {
			sims[j] = transfer.ReSim(feats[i], feats[j])
		}
		for a, amr := range amrs {
			clear(in)
			for _, j := range members[a][i] {
				if j == i || in[j] {
					t.Fatalf("amr %v: row %d's windows cover row %d twice or cover the row itself", amr, i, j)
				}
				in[j] = true
			}
			for j := range feats {
				if j != i && in[j] != (sims[j] >= amr) {
					t.Fatalf("amr %v: row %d (Dis %v, F %v) and row %d (Dis %v, F %v): reSim %v, in window %v",
						amr, i, feats[i].Dis, feats[i].F, j, feats[j].Dis, feats[j].F, sims[j], in[j])
				}
			}
			pairs[a] += len(members[a][i])
		}
	}
	for a := range pairs {
		pairs[a] /= 2
	}
	return pairs
}

// TestWindowsMatchAllPairs: on the region edges of worldgen cities, the
// windows found by binary search are the all-pairs similarity graph at
// every amr.
func TestWindowsMatchAllPairs(t *testing.T) {
	for _, c := range []struct {
		scale string
		seeds []int64
	}{{worldgen.ScaleBench, []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}, {worldgen.ScaleCI, []int64{1, 2, 3}}} {
		scale := c.scale
		for _, seed := range c.seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", scale, seed), func(t *testing.T) {
				if scale == worldgen.ScaleCI && (raceEnabled || testing.Short()) {
					t.Skip("ci-scale all-pairs scoring runs in the un-instrumented CI step")
				}
				problemMu.Lock()
				g := cityGraph(t, scale, seed)
				problemMu.Unlock()
				ids := make([]int, len(g.Edges))
				for i, e := range g.Edges {
					ids[i] = int(e.ID)
				}
				pairs := checkWindows(t, transfer.EdgeFeatureRows(g, ids), windowAMRs)
				t.Logf("%d rows; pairs at amr %v: %v", len(ids), windowAMRs, pairs)
			})
		}
	}
}

// TestWindowsTable covers the cases a window search can get wrong on
// synthetic features: its members, its pair count and the operator
// built on it against the all-pairs reference system.
func TestWindowsTable(t *testing.T) {
	pp := transfer.RoadTypePair{A: roadnet.Primary, B: roadnet.Primary}
	ps := transfer.RoadTypePair{A: roadnet.Primary, B: roadnet.Secondary}
	rr := transfer.RoadTypePair{A: roadnet.Residential, B: roadnet.Residential}
	f := func(dis float64, set ...transfer.RoadTypePair) transfer.Features {
		return transfer.Features{Dis: dis, F: set}
	}
	for _, tc := range []struct {
		name  string
		feats []transfer.Features
		amr   float64
		pairs int
		// onAMR counts the pairs whose reSim is exactly amr.
		onAMR int
	}{
		{name: "pairs exactly on amr", amr: 0.7, pairs: 4, onAMR: 2,
			// 400/1000 = 1000/2500 = 0.4 with J = 1: 0.5·0.4 + 0.5 = 0.7.
			feats: []transfer.Features{f(1000, pp), f(2501, pp), f(400, pp), f(2500, pp), f(399, pp)}},
		{name: "duplicate Dis straddling the row's own", amr: 0.85, pairs: 6,
			feats: []transfer.Features{f(800, pp), f(500, pp), f(1000, pp), f(500, pp), f(800, pp), f(500, pp)}},
		{name: "Dis = 0, both zero and one zero", amr: 0.5, pairs: 7, onAMR: 6,
			// Two zero rows are similar through disRatio(0, 0) = 1 even
			// with disjoint F; one zero row only through J.
			feats: []transfer.Features{f(0, pp), f(0, pp), f(0, rr), f(300, pp), f(300, rr)}},
		{name: "Dis = 0 at amr 0.7", amr: 0.7, pairs: 1,
			feats: []transfer.Features{f(0, pp), f(0, pp), f(0, rr), f(300, pp), f(300, rr)}},
		{name: "empty F sets", amr: 0.7, pairs: 2,
			// J(∅, ∅) = 1, J(∅, F) = 0.
			feats: []transfer.Features{f(100), f(100, pp), f(120), f(100, pp, ps)}},
		{name: "several classes", amr: 0.6, pairs: 6,
			feats: []transfer.Features{f(100, pp), f(110, pp, ps), f(200, ps), f(105, pp), f(90, rr), f(95, pp, ps)}},
		{name: "identical rows at amr 1", amr: 1, pairs: 3, onAMR: 3,
			feats: []transfer.Features{f(700, ps), f(700, ps), f(700, ps)}},
		{name: "amr above 1", amr: 1.01, pairs: 0,
			feats: []transfer.Features{f(700, ps), f(700, ps), f(700, ps)}},
		{name: "n = 1", amr: 0.5, pairs: 0, feats: []transfer.Features{f(700, ps)}},
		{name: "n = 0", amr: 0.5, pairs: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkWindows(t, tc.feats, []float64{tc.amr})[0]; got != tc.pairs {
				t.Errorf("%d similar pairs, want %d", got, tc.pairs)
			}
			onAMR := 0
			for i := range tc.feats {
				for j := i + 1; j < len(tc.feats); j++ {
					if transfer.ReSim(tc.feats[i], tc.feats[j]) == tc.amr {
						onAMR++
					}
				}
			}
			if onAMR != tc.onAMR {
				t.Errorf("%d pairs exactly on amr, want %d", onAMR, tc.onAMR)
			}
			cfg := transfer.DefaultConfig()
			cfg.AMR = tc.amr
			labeled := len(tc.feats) / 2
			checkSystem(t, tc.feats, labeled, cfg, refSystem(tc.feats, labeled, cfg))
		})
	}
}
