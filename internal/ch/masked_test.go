package ch_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/ch"
	"repro/internal/pref"
	"repro/internal/roadnet"
	"repro/internal/route"
	"repro/internal/worldgen"
)

// oracleCity is a road network the masked-metric oracles run on.
type oracleCity struct {
	name string
	g    *roadnet.Graph
}

// oracleCities returns tiny, bench and, when large, ci and 6.4k
// vertices.
func oracleCities(large bool) []oracleCity {
	specs := map[string]worldgen.Spec{"bench": worldgen.MustScale(worldgen.ScaleBench, 1)}
	if large {
		specs["ci"], specs["6.4k"] = worldgen.MustScale(worldgen.ScaleCI, 1), worldgen.ForVertices(6400, 1)
	}
	cs := []oracleCity{{"tiny", roadnet.Generate(roadnet.Tiny(7))}}
	for _, name := range []string{"bench", "ci", "6.4k"} {
		if spec, ok := specs[name]; ok {
			g, _ := worldgen.BuildGraph(spec)
			cs = append(cs, oracleCity{name, g})
		}
	}
	return cs
}

// producibleKeys lists every masked key a model can route on: each
// scalar weight under each of the learner's candidate slaves.
func producibleKeys() []testMetric {
	var keys []testMetric
	for w := roadnet.Weight(0); w < roadnet.NumCostWeights; w++ {
		for _, s := range pref.CandidateSlaves() {
			keys = append(keys, testMetric{w: w, mask: s.Mask()})
		}
	}
	return keys
}

// customizeOver customizes each key on topo as route.CHEngine stores
// it — in one CustomizeAll against its weight's scalar metric — and
// returns those metrics beside the dense Customize of each key's cost
// function, the reference.
func customizeOver(topo *ch.Topology, keys []testMetric) (masked, dense []*ch.Metric) {
	g := topo.Graph()
	out := route.OutTypeMasks(g)
	var scalar []func(roadnet.EdgeID) float64
	for w := roadnet.Weight(0); w < roadnet.NumCostWeights; w++ {
		scalar = append(scalar, costOf(g, out, w, 0))
	}
	masters := topo.CustomizeAll(scalar, nil)
	costs, of := make([]func(roadnet.EdgeID) float64, len(keys)), make([]*ch.Metric, len(keys))
	for x, k := range keys {
		costs[x], of[x] = costOf(g, out, k.w, k.mask), masters[k.w]
		dense = append(dense, topo.Customize(costs[x]))
	}
	return topo.CustomizeAll(costs, of), dense
}

// TestMaskedMetricMatchesDense holds every producible masked key's
// metric, stored against its master, to the dense Customize of its
// cost function: its weights and middle codes, expanded through the
// delta, bit for bit, and its middles as resolved for unpacking. On
// tiny, bench, ci and 6.4k vertices; the last two skip under the race
// detector and -short.
func TestMaskedMetricMatchesDense(t *testing.T) {
	keys := producibleKeys()
	for _, c := range oracleCities(!raceEnabled && !testing.Short()) {
		t.Run(c.name, func(t *testing.T) {
			topo := ch.BuildTopology(c.g)
			masked, dense := customizeOver(topo, keys)
			deltaB, denseB := 0, 0
			for x, k := range keys {
				m, ref := masked[x], dense[x]
				if !m.Masked() || ref.Masked() {
					t.Fatalf("key %v: masked %v, reference masked %v", k, m.Masked(), ref.Masked())
				}
				gu, gd := m.Weights()
				wu, wd := ref.Weights()
				cu, cd := m.Codes()
				ru, rd := ref.Codes()
				if !sameBits(gu, wu) || !sameBits(gd, wd) || !slices.Equal(cu, ru) || !slices.Equal(cd, rd) {
					t.Fatalf("key %v: expanded weights or codes differ from dense Customize's", k)
				}
				vu, vd := m.Middles()
				xu, xd := ref.Middles()
				if !slices.Equal(vu, xu) || !slices.Equal(vd, xd) {
					t.Fatalf("key %v: middles differ from dense Customize's", k)
				}
				deltaB += m.Bytes()
				denseB += ref.Bytes()
			}
			t.Logf("%d arcs, %d keys: %.1f KB a masked metric, %.1f KB dense", topo.NumArcs(), len(keys),
				float64(deltaB)/float64(len(keys))/1024, float64(denseB)/float64(len(keys))/1024)
		})
	}
}

// TestMaskedQueryMatchesDense: on every producible masked key, 4,096
// random ODs answer on the stored metric as on the dense Customize of
// its cost function — the same reachability, Float64bits-equal costs
// from Route and Cost, the same paths, and the same arc labels (parc)
// on both climbed chains, stale ones included, since both queries ran
// the same ODs. On tiny, bench, ci and 6.4k vertices; the last two skip
// under the race detector and -short.
func TestMaskedQueryMatchesDense(t *testing.T) {
	keys := producibleKeys()
	for _, c := range oracleCities(!raceEnabled && !testing.Short()) {
		t.Run(c.name, func(t *testing.T) {
			topo := ch.BuildTopology(c.g)
			masked, dense := customizeOver(topo, keys)
			for x, k := range keys {
				rng := rand.New(rand.NewSource(int64(x)))
				if err := sameAnswers(topo, masked[x], dense[x], rng, 4096); err != nil {
					t.Fatalf("key %v: %v", k, err)
				}
			}
		})
	}
}

// sameAnswers runs ods random ODs on m and on ref, each on its own
// fresh query, and reports the first answer that differs.
func sameAnswers(topo *ch.Topology, m, ref *ch.Metric, rng *rand.Rand, ods int) error {
	n := topo.Graph().NumVertices()
	q, rq := ch.NewMetricQuery(topo), ch.NewMetricQuery(topo)
	for range ods {
		s, d := roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n))
		p, c, ok := q.Route(m, s, d)
		wp, wc, wok := rq.Route(ref, s, d)
		if ok != wok || math.Float64bits(c) != math.Float64bits(wc) || !slices.Equal(p, wp) {
			return fmt.Errorf("%d->%d: path %v cost %v ok %v, dense %v cost %v ok %v", s, d, p, c, ok, wp, wc, wok)
		}
		f, b := q.Parcs()
		wf, wb := rq.Parcs()
		for _, v := range [2]roadnet.VertexID{s, d} {
			for {
				if f[v] != wf[v] || b[v] != wb[v] {
					return fmt.Errorf("%d->%d: vertex %d's parc %d/%d, dense %d/%d", s, d, v, f[v], b[v], wf[v], wb[v])
				}
				up := topo.UpNeighbors(v)
				if len(up) == 0 {
					break
				}
				v = roadnet.VertexID(up[0])
			}
		}
		cc, cok := q.Cost(m, s, d)
		if cok != wok || math.Float64bits(cc) != math.Float64bits(wc) {
			return fmt.Errorf("%d->%d: Cost %v ok %v, dense Route %v ok %v", s, d, cc, cok, wc, wok)
		}
		rq.Cost(ref, s, d)
	}
	return nil
}

// TestMaskedMetricProperty: on random grids with small integer weights
// (so triangles tie), a metric customized against a master stores
// exactly dense Customize's weights and codes, and answers random ODs
// as it, for a random cost function that forbids a random share of
// edges and reweights a few — a delta against any master, not only the
// same weight with a slave mask.
func TestMaskedMetricProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := roadnet.GenerateGrid(2+rng.Intn(11), 2+rng.Intn(11), 100, roadnet.Residential)
		base := make([]float64, g.NumEdges())
		for e := range base {
			base[e] = float64(1 + rng.Intn(4))
		}
		forbid, reweigh := rng.Float64(), 0.1*rng.Float64()
		own := make([]float64, g.NumEdges())
		for e := range own {
			switch r := rng.Float64(); {
			case r < forbid:
				own[e] = math.Inf(1)
			case r < forbid+reweigh:
				own[e] = float64(1 + rng.Intn(4))
			default:
				own[e] = base[e]
			}
		}
		topo := ch.BuildTopology(g)
		master := topo.Customize(func(e roadnet.EdgeID) float64 { return base[e] })
		cost := func(e roadnet.EdgeID) float64 { return own[e] }
		m := topo.CustomizeAll([]func(roadnet.EdgeID) float64{cost}, []*ch.Metric{master})[0]
		ref := topo.Customize(cost)
		gu, gd := m.Weights()
		wu, wd := ref.Weights()
		cu, cd := m.Codes()
		ru, rd := ref.Codes()
		if !m.Masked() || !sameBits(gu, wu) || !sameBits(gd, wd) || !slices.Equal(cu, ru) || !slices.Equal(cd, rd) {
			t.Logf("seed %d: expanded metric differs from dense Customize's", seed)
			return false
		}
		if err := sameAnswers(topo, m, ref, rng, 200); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
