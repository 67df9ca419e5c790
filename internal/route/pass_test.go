package route

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/ch"
	"repro/internal/roadnet"
)

// TestPassForkOverlay pins the residency rules of TryAppendRouteMask
// and adoption. A plain fork answers a masked search only on a resident
// metric. Forks of one pass fork, searching concurrently, answer every
// masked search as Dijkstra does, customize each metric once into their
// shared overlay and leave the shared table alone. PrepareAll through
// the pass fork adopts the overlay's metric without customizing it again,
// and plain forks then answer on it.
func TestPassForkOverlay(t *testing.T) {
	g := roadnet.Generate(roadnet.Tiny(5))
	base := BuildCHEngine(g, roadnet.TT, ch.Config{})
	const mask = SlaveMask(1<<roadnet.Primary | 1<<roadnet.Secondary)
	plain := base.Fork().(*CHEngine)
	if p, _, _, answered := plain.TryAppendRouteMask(roadnet.Path{7}, 0, 1, roadnet.DI, mask); answered || !slices.Equal(p, roadnet.Path{7}) {
		t.Fatalf("a plain fork answered on a metric nobody customized (path %v)", p)
	}

	pass := base.PassFork()
	customized, resident := base.Customizations(), base.ResidentMetrics()
	n := g.NumVertices()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		fork, dij := pass.Fork().(*CHEngine), NewEngine(g)
		rng := rand.New(rand.NewSource(int64(w)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s, d := roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n))
				m := []SlaveMask{mask, 1 << roadnet.Motorway}[i%2]
				hp, _, hok, answered := fork.TryAppendRouteMask(nil, s, d, roadnet.DI, m)
				dp, _, dok := dij.AppendRouteMask(nil, s, d, roadnet.DI, m)
				if !answered || hok != dok || !slices.Equal(hp, dp) {
					t.Errorf("%d→%d under mask %b: pass fork %v (answered %v), Dijkstra %v", s, d, m, hp, answered, dp)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := pass.pass.customized.Load(); got != 2 {
		t.Errorf("the overlay customized %d metrics for 2 masks", got)
	}
	if base.Customizations() != customized || base.ResidentMetrics() != resident {
		t.Fatalf("the pass changed the shared table: %d → %d customizations, %d → %d metrics",
			customized, base.Customizations(), resident, base.ResidentMetrics())
	}

	di := []MetricKey{{W: roadnet.DI, Mask: mask}}
	if pass.PrepareAll(di) != 1 || pass.PrepareAll(di) != 0 {
		t.Fatal("PrepareAll through the pass fork should add the metric once")
	}
	if base.Customizations() != customized || !base.Resident(roadnet.DI, mask) || base.ResidentMetrics() != resident+1 {
		t.Fatal("PrepareAll customized again instead of adopting the overlay's metric")
	}
	if base.tab.get(metricKey{w: roadnet.DI, mask: mask}) != pass.pass.get(metricKey{w: roadnet.DI, mask: mask}) {
		t.Fatal("the adopted metric is not the overlay's")
	}
	if _, _, _, answered := plain.TryAppendRouteMask(nil, 0, 1, roadnet.DI, mask); !answered {
		t.Fatal("a plain fork did not answer on an adopted metric")
	}
}

// TestPrepareAllCountsOnePerMetric: a batch prepare adds each distinct
// missing metric once — a key repeated in the batch or already resident
// adds nothing — and Customizations counts one per metric customized,
// the base metric included; through a pass fork, an overlay metric is
// adopted, not counted, and the rest are customized.
func TestPrepareAllCountsOnePerMetric(t *testing.T) {
	g := roadnet.Generate(roadnet.Tiny(5))
	const m1, m2 = SlaveMask(1<<roadnet.Primary | 1<<roadnet.Secondary), SlaveMask(1 << roadnet.Motorway)
	base := NewCHEngine(g, ch.BuildTopology(g), roadnet.TT,
		MetricKey{W: roadnet.DI}, MetricKey{W: roadnet.TT}, MetricKey{W: roadnet.DI, Mask: m1}, MetricKey{W: roadnet.DI})
	if c, r := base.Customizations(), base.ResidentMetrics(); c != 3 || r != 3 {
		t.Fatalf("NewCHEngine with TT and 2 more distinct metrics: %d customizations, %d resident; want 3, 3", c, r)
	}
	if n := base.PrepareAll([]MetricKey{{W: roadnet.TT}, {W: roadnet.DI, Mask: m1}}); n != 0 || base.Customizations() != 3 {
		t.Fatalf("preparing resident metrics added %d, customized %d", n, base.Customizations()-3)
	}

	pass := base.PassFork()
	if _, _, _, answered := pass.TryAppendRouteMask(nil, 0, 1, roadnet.FC, m2); !answered {
		t.Fatal("a pass fork did not answer a masked search")
	}
	n := pass.PrepareAll([]MetricKey{{W: roadnet.FC, Mask: m2}, {W: roadnet.FC}, {W: roadnet.TT}, {W: roadnet.FC}, {W: roadnet.TT, Mask: m2}})
	if n != 3 || base.Customizations() != 5 || base.ResidentMetrics() != 6 {
		t.Fatalf("pass-fork batch: added %d, %d customizations, %d resident; want 3, 5, 6", n, base.Customizations(), base.ResidentMetrics())
	}
	if k := (metricKey{w: roadnet.FC, mask: m2}); base.tab.get(k) != pass.pass.get(k) {
		t.Fatal("the batch customized the overlay's metric instead of adopting it")
	}
}
