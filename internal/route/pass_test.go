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
// shared overlay and leave the shared table alone. Prepare through the
// pass fork adopts the overlay's metric without customizing it again,
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

	if !pass.Prepare(roadnet.DI, mask) || pass.Prepare(roadnet.DI, mask) {
		t.Fatal("Prepare through the pass fork should add the metric once")
	}
	if base.Customizations() != customized || !base.Resident(roadnet.DI, mask) || base.ResidentMetrics() != resident+1 {
		t.Fatal("Prepare customized again instead of adopting the overlay's metric")
	}
	if base.tab.get(metricKey{w: roadnet.DI, mask: mask}) != pass.pass.get(metricKey{w: roadnet.DI, mask: mask}) {
		t.Fatal("the adopted metric is not the overlay's")
	}
	if _, _, _, answered := plain.TryAppendRouteMask(nil, 0, 1, roadnet.DI, mask); !answered {
		t.Fatal("a plain fork did not answer on an adopted metric")
	}
}
