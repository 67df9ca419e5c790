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

// customize customizes topo under route.CHEngine's cost function for
// (w, mask): a masked-out edge costs +Inf when its tail has a
// mask-satisfying out-edge.
func (tm testMetric) customize(topo *ch.Topology) *ch.Metric {
	g := topo.Graph()
	return topo.Customize(costOf(g, route.OutTypeMasks(g), tm.w, tm.mask))
}

// customizeReference is customize in the reference layout.
func (tm testMetric) customizeReference(topo *ch.Topology) *ch.RefMetric {
	g := topo.Graph()
	return topo.CustomizeReference(costOf(g, route.OutTypeMasks(g), tm.w, tm.mask))
}

// TestElimTreeMatchesReference holds the elimination-tree query to the
// priority-queue query it replaced (reference_test.go), each on its own
// layout of the metric — the triangle codes against the reference's
// middle vertices and findArc — bit for bit:
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
				m, rm := tm.customize(topo), tm.customizeReference(topo)
				rng := rand.New(rand.NewSource(c.seed*100 + int64(mi)))
				unreachable := 0
				for i := 0; i < ods; i++ {
					s, d := roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n))
					wantP, wantC, wantOK := ref.Route(rm, s, d)
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

// TestLabelsClearAfterQuery runs one query context through a long
// mixed sequence on two networks, a forest of two components with
// one-way streets and a worldgen city: the six test metrics interleaved
// at random (the masked ones carry +Inf arcs), Cost and Route, s == d
// on every tenth query, and pairs across the components. After every
// query every distance label on both sides must read +Inf again — the
// one thing the next query assumes of its labels — and the answer must
// equal a fresh context's and the reference query's: the same
// reachability, a Float64bits-equal cost and the identical path. A
// query with an end out of range must panic before it sets a label.
func TestLabelsClearAfterQuery(t *testing.T) {
	islands, _ := twoIslands(t, rand.New(rand.NewSource(5)))
	city, _ := worldgen.BuildGraph(worldgen.MustScale(worldgen.ScaleBench, 1))
	for gi, g := range []*roadnet.Graph{islands, city} {
		topo := ch.BuildTopology(g)
		ms, rms := make([]*ch.Metric, len(testMetrics)), make([]*ch.RefMetric, len(testMetrics))
		for i, tm := range testMetrics {
			ms[i], rms[i] = tm.customize(topo), tm.customizeReference(topo)
		}
		q, ref := ch.NewMetricQuery(topo), ch.NewReferenceQuery(topo)
		n := g.NumVertices()
		rng := rand.New(rand.NewSource(int64(gi) + 1))
		unreachable := 0
		for i := 0; i < 1500; i++ {
			mi := rng.Intn(len(ms))
			s, d := roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n))
			if i%10 == 0 {
				d = s
			}
			var p roadnet.Path
			var c float64
			var ok bool
			if i%3 == 0 {
				c, ok = q.Cost(ms[mi], s, d)
			} else {
				p, c, ok = q.Route(ms[mi], s, d)
			}
			fwd, bwd := q.Dists()
			for v := range fwd {
				if !math.IsInf(fwd[v], 1) || !math.IsInf(bwd[v], 1) {
					t.Fatalf("graph %d, query %d (metric %d, %d->%d): vertex %d keeps labels %g / %g", gi, i, mi, s, d, v, fwd[v], bwd[v])
				}
			}
			fp, fc, fok := ch.NewMetricQuery(topo).Route(ms[mi], s, d)
			rp, rc, rok := ref.Route(rms[mi], s, d)
			if ok != fok || ok != rok {
				t.Fatalf("graph %d, query %d (metric %d, %d->%d): ok = %v, fresh context %v, reference %v", gi, i, mi, s, d, ok, fok, rok)
			}
			if !ok {
				unreachable++
				continue
			}
			if math.Float64bits(c) != math.Float64bits(fc) || math.Float64bits(c) != math.Float64bits(rc) {
				t.Fatalf("graph %d, query %d (metric %d, %d->%d): cost %v, fresh context %v, reference %v", gi, i, mi, s, d, c, fc, rc)
			}
			if i%3 != 0 && (!slices.Equal(p, fp) || !slices.Equal(p, rp)) {
				t.Fatalf("graph %d, query %d (metric %d, %d->%d): path %v, fresh context %v, reference %v", gi, i, mi, s, d, p, fp, rp)
			}
		}
		if gi == 0 && unreachable == 0 {
			t.Errorf("no query on the forest was unreachable; the sequence must cover that case")
		}
		// An out-of-range end panics before any label is set.
		for _, sd := range [][2]roadnet.VertexID{{0, roadnet.VertexID(n)}, {roadnet.VertexID(n), 0}} {
			func() {
				defer func() { recover() }()
				q.Cost(ms[0], sd[0], sd[1])
				t.Errorf("graph %d: %d->%d did not panic", gi, sd[0], sd[1])
			}()
			fwd, bwd := q.Dists()
			for v := range fwd {
				if !math.IsInf(fwd[v], 1) || !math.IsInf(bwd[v], 1) {
					t.Fatalf("graph %d: the panicking query %d->%d left labels %g / %g at vertex %d", gi, sd[0], sd[1], fwd[v], bwd[v], v)
				}
			}
		}
	}
}
