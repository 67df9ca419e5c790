package ch_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ch"
	"repro/internal/roadnet"
	"repro/internal/route"
	"repro/internal/worldgen"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// testMetric is one customization the equivalence test runs under: a
// scalar weight, optionally restricted by an Algorithm 2 slave mask —
// the +Inf-carrying metrics RoutePref queries ride.
type testMetric struct {
	w    roadnet.Weight
	mask route.SlaveMask
}

var testMetrics = []testMetric{
	{w: roadnet.TT}, {w: roadnet.DI}, {w: roadnet.FC},
	{w: roadnet.TT, mask: 1<<roadnet.Motorway | 1<<roadnet.Trunk},
	{w: roadnet.DI, mask: 1<<roadnet.Tertiary | 1<<roadnet.Residential},
	{w: roadnet.FC, mask: 1<<roadnet.Primary | 1<<roadnet.Secondary},
}

// customize is route.CHEngine's cost function for (w, mask): a
// masked-out edge costs +Inf when its tail has a mask-satisfying
// out-edge.
func (tm testMetric) customize(topo *ch.Topology) *ch.Metric {
	g := topo.Graph()
	out := route.OutTypeMasks(g)
	return topo.Customize(func(e roadnet.EdgeID) float64 {
		ed := g.Edge(e)
		if out[ed.From]&tm.mask != 0 && tm.mask&(1<<ed.Type) == 0 {
			return math.Inf(1)
		}
		return g.EdgeWeight(e, tm.w)
	})
}

// TestElimTreeMatchesReference holds the elimination-tree query to the
// priority-queue query it replaced (reference_test.go), bit for bit:
// the same reachability, Float64bits-equal cost and the identical
// vertex sequence, on every OD of 2,000 per city and metric, under the
// three scalar weights and three masked metrics, on three cities at
// each of two scales. "Identical" is the point — the learner's Eq. 1
// similarities and the pinned route digests in internal/core depend on
// which of two equal-cost paths comes back, not just on the cost.
//
// The ci cities skip under the race detector and -short; every subtest
// is one goroutine, and CI runs them un-instrumented in their own step.
func TestElimTreeMatchesReference(t *testing.T) {
	type city struct {
		scale string
		seed  int64
	}
	cities := []city{{worldgen.ScaleBench, 1}, {worldgen.ScaleBench, 3}, {worldgen.ScaleBench, 7}}
	if !raceEnabled && !testing.Short() {
		cities = append(cities, city{worldgen.ScaleCI, 1}, city{worldgen.ScaleCI, 2}, city{worldgen.ScaleCI, 3})
	}
	const ods = 2000
	for _, c := range cities {
		c := c
		t.Run(fmt.Sprintf("%s-%d", c.scale, c.seed), func(t *testing.T) {
			t.Parallel()
			g, _ := worldgen.BuildGraph(worldgen.MustScale(c.scale, c.seed))
			n := g.NumVertices()
			topo := ch.BuildTopology(g)
			q, ref := ch.NewMetricQuery(topo), ch.NewReferenceQuery(topo)
			var buf roadnet.Path
			for mi, tm := range testMetrics {
				m := tm.customize(topo)
				rng := rand.New(rand.NewSource(c.seed*100 + int64(mi)))
				unreachable := 0
				for i := 0; i < ods; i++ {
					s, d := roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n))
					wantP, wantC, wantOK := ref.Route(m, s, d)
					gotP, gotC, gotOK := q.Route(m, s, d)
					if gotOK != wantOK {
						t.Fatalf("metric %d, %d->%d: ok = %v, reference %v", mi, s, d, gotOK, wantOK)
					}
					if !wantOK {
						unreachable++
						continue
					}
					if math.Float64bits(gotC) != math.Float64bits(wantC) {
						t.Fatalf("metric %d, %d->%d: cost %v (bits %x), reference %v (bits %x)",
							mi, s, d, gotC, math.Float64bits(gotC), wantC, math.Float64bits(wantC))
					}
					if !slices.Equal(gotP, wantP) {
						t.Fatalf("metric %d, %d->%d: path %v, reference %v", mi, s, d, gotP, wantP)
					}
					// Cost and AppendRoute are the same search.
					if cc, ok := q.Cost(m, s, d); !ok || math.Float64bits(cc) != math.Float64bits(wantC) {
						t.Fatalf("metric %d, %d->%d: Cost = %v, %v; Route said %v", mi, s, d, cc, ok, wantC)
					}
					var ac float64
					buf, ac, _ = q.AppendRoute(buf[:0], m, s, d)
					if !slices.Equal(buf, wantP) || math.Float64bits(ac) != math.Float64bits(wantC) {
						t.Fatalf("metric %d, %d->%d: AppendRoute = %v cost %v, reference %v cost %v", mi, s, d, buf, ac, wantP, wantC)
					}
				}
				t.Logf("metric %d (w=%v mask=%#x): %d ODs, %d unreachable", mi, tm.w, tm.mask, ods, unreachable)
			}
			t.Logf("n=%d arcs=%d height=%d climb arcs mean=%.1f", n, topo.NumArcs(), topo.Height(), topo.ClimbArcsMean())
		})
	}
}

// TestQueryAllocations pins the steady-state allocation counts:
// AppendRoute into a caller's buffer allocates nothing, Route allocates
// exactly the path it returns.
func TestQueryAllocations(t *testing.T) {
	g := roadnet.Generate(roadnet.Tiny(7))
	topo := ch.BuildTopology(g)
	m := testMetrics[0].customize(topo)
	q := ch.NewMetricQuery(topo)
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(9))
	pairs := make([][2]roadnet.VertexID, 64)
	for i := range pairs {
		pairs[i] = [2]roadnet.VertexID{roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n))}
	}
	var buf roadnet.Path
	for _, p := range pairs { // warm the scratch to its steady-state size
		buf, _, _ = q.AppendRoute(buf[:0], m, p[0], p[1])
		q.Route(m, p[0], p[1])
	}
	i := 0
	if a := testing.AllocsPerRun(200, func() {
		p := pairs[i%len(pairs)]
		i++
		buf, _, _ = q.AppendRoute(buf[:0], m, p[0], p[1])
	}); a != 0 {
		t.Errorf("AppendRoute allocates %.2f times per query, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		p := pairs[i%len(pairs)]
		i++
		if _, _, ok := q.Route(m, p[0], p[1]); !ok {
			t.Fatalf("%d->%d unreachable on a connected network", p[0], p[1])
		}
	}); a != 1 {
		t.Errorf("Route allocates %.2f times per query, want 1 (the returned path)", a)
	}
}

// TestEpochWrap starts a query context two queries short of the uint32
// epoch wrap and checks the next four queries against Dijkstra, each
// with every stamp set to a value the epoch may take right after the
// wrap: 1, what a query 2³² ago left behind, and 0, what a vertex never
// labelled holds. Without the clear-and-restart-at-1 on wrap those
// stamps read as live labels and the query returns distances from a
// search that never ran.
func TestEpochWrap(t *testing.T) {
	g := roadnet.Generate(roadnet.Tiny(7))
	topo := ch.BuildTopology(g)
	m := testMetrics[0].customize(topo)
	eng := route.NewEngine(g)
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(4))

	q := ch.NewMetricQuery(topo)
	// Leave real (stale) labels everywhere a climb can: one from every vertex.
	for v := 0; v < n; v++ {
		q.Cost(m, roadnet.VertexID(v), roadnet.VertexID(n-1-v))
	}
	for _, stale := range []uint32{1, 0} {
		q.SetEpoch(math.MaxUint32 - 2)
		for i := 0; i < 4; i++ { // epochs MaxUint32-1, MaxUint32, (wrap) 1, 2
			q.StampAll(stale)
			s, d := roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n))
			_, want, okD := eng.Route(s, d, roadnet.TT)
			p, got, ok := q.Route(m, s, d)
			if ok != okD || math.Abs(got-want) > 1e-6*(1+want) {
				t.Fatalf("stale stamp %d, query %d (%d->%d, epoch %d): cost %g ok %v, dijkstra %g %v", stale, i, s, d, q.Epoch(), got, ok, want, okD)
			}
			if !p.Valid(g) || p[0] != s || p[len(p)-1] != d {
				t.Fatalf("stale stamp %d, query %d (%d->%d): invalid path %v", stale, i, s, d, p)
			}
		}
		if e := q.Epoch(); e != 2 {
			t.Fatalf("epoch after wrapping = %d, want 2 (restart at 1, one more query)", e)
		}
	}
}
