package worldgen

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/roadnet"
	"repro/internal/traj"
)

// Named scales, from the in-process bench world up to a ~1M-vertex
// synthetic metropolis. Approximate vertex counts are properties of
// the generator configuration, not promises; use ForVertices for an
// explicit target.
const (
	ScaleBench = "bench" // ≈230 vertices — the bench_test.go world
	ScaleCI    = "ci"    // ≈1.5k vertices — the benchmark city
	ScaleCity  = "city"  // ≈25k vertices
	ScaleMetro = "metro" // ≈250k vertices
	ScaleMax   = "max"   // ≈1M vertices
)

// ScaleNames lists the named scales in ascending size order.
func ScaleNames() []string {
	return []string{ScaleBench, ScaleCI, ScaleCity, ScaleMetro, ScaleMax}
}

// Spec pins one synthetic world: a seed, the road-network generator
// configuration and the trajectory simulator configuration. Build is
// deterministic in the Spec.
type Spec struct {
	Name string
	Seed int64
	Net  roadnet.GenConfig
	Sim  traj.SimConfig
}

// ForScale returns the Spec for a named scale. ScaleBench reproduces
// the historical bench_test.go world exactly (roadnet.Tiny plus a
// D2-like 600-trip taxi feed) so committed micro-bench baselines stay
// comparable across the worldgen migration.
func ForScale(name string, seed int64) (Spec, error) {
	switch name {
	case ScaleBench:
		return Spec{Name: name, Seed: seed, Net: roadnet.Tiny(seed), Sim: traj.D2Like(seed, 600)}, nil
	case ScaleCI:
		s := ForVertices(1500, seed)
		s.Name = name
		s.Sim = simFor(seed, 900)
		return s, nil
	case ScaleCity:
		s := ForVertices(25_000, seed)
		s.Name = name
		return s, nil
	case ScaleMetro:
		s := ForVertices(250_000, seed)
		s.Name = name
		return s, nil
	case ScaleMax:
		s := ForVertices(1_000_000, seed)
		s.Name = name
		return s, nil
	}
	return Spec{}, fmt.Errorf("worldgen: unknown scale %q (want one of %v)", name, ScaleNames())
}

// MustScale is ForScale for callers with a known-good name.
func MustScale(name string, seed int64) Spec {
	s, err := ForScale(name, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// ForVertices derives a Spec targeting approximately n vertices. Towns
// grow in size (not just count) with the target so center placement
// stays tractable at metropolis scale, and the map extent scales with
// the town count so density stays city-like.
func ForVertices(n int, seed int64) Spec {
	if n < 60 {
		n = 60
	}
	// Mean vertices per town: 64 for small worlds up to 2500 for the
	// largest, keeping the town count in the tens-to-hundreds.
	perTown := math.Min(2500, math.Max(64, float64(n)/100))
	side := int(math.Sqrt(perTown))
	minSide := side - side/4
	if minSide < 3 {
		minSide = 3
	}
	maxSide := side + side/4 + 1
	mean := float64(minSide+maxSide) / 2
	towns := int(math.Round(float64(n) / (mean * mean)))
	if towns < 3 {
		towns = 3
	}
	const block = 140.0
	// Town footprint plus corridor breathing room.
	foot := float64(maxSide) * block * 2.4
	h := math.Sqrt(float64(towns)) * foot
	w := h * 1.25
	extra := towns / 3
	if extra < 1 {
		extra = 1
	}
	trips := n
	if trips < 500 {
		trips = 500
	}
	if trips > 25_000 {
		trips = 25_000
	}
	return Spec{
		Name: fmt.Sprintf("v%d", n),
		Seed: seed,
		Net: roadnet.GenConfig{
			Seed:        seed,
			Width:       w,
			Height:      h,
			Towns:       towns,
			TownMinSide: minSide,
			TownMaxSide: maxSide,
			BlockM:      block,
			HighwaySegM: 700,
			ExtraLinks:  extra,
			Jitter:      0.22,
		},
		Sim: simFor(seed, trips),
	}
}

// simFor scales a D2-like (low-frequency taxi) feed's population with
// the trip count.
func simFor(seed int64, trips int) traj.SimConfig {
	cfg := traj.D2Like(seed, trips)
	if d := trips / 8; d > cfg.Drivers {
		cfg.Drivers = d
	}
	if h := trips / 60; h > cfg.Hubs {
		cfg.Hubs = h
	}
	return cfg
}

// World is one generated dataset: the road network, the full simulated
// trajectory set and its train/test split (the paper's 75/25 horizon
// cut).
type World struct {
	Spec Spec
	Road *roadnet.Graph
	Sim  *traj.Simulator
	All  []*traj.Trajectory
	// Train and Test split All at 75% of the simulated horizon; Train
	// feeds the offline router build, Test is the live workload
	// (queries and ingest) the benchmark and the ci-scale serve tests
	// replay.
	Train, Test []*traj.Trajectory
	// RepairLinks is the number of connectivity repair links Build
	// spliced in (0 when the raw generator output was already
	// connected).
	RepairLinks int
}

// Build generates the world for a Spec: road network (connectivity
// repaired), trajectory simulation, horizon split. Deterministic in
// the Spec.
func Build(spec Spec) *World {
	road, repaired := BuildGraph(spec)
	sim := traj.NewSimulator(road, spec.Sim)
	all := sim.Run()
	train, test := traj.Split(all, 0.75*spec.Sim.HorizonSec)
	return &World{
		Spec: spec, Road: road, Sim: sim,
		All: all, Train: train, Test: test,
		RepairLinks: repaired,
	}
}

// BuildGraph generates just the road network for a Spec, with the
// connectivity guarantee, and reports how many repair links it added.
func BuildGraph(spec Spec) (*roadnet.Graph, int) {
	g := roadnet.Generate(spec.Net)
	comps := components(g)
	if len(comps) <= 1 {
		return g, 0
	}
	return repair(g, comps), len(comps) - 1
}

// components returns the connected components of g as vertex lists,
// each sorted ascending, ordered by their lowest vertex ID. Roads are
// generated bidirectionally, so weak and strong connectivity coincide.
func components(g *roadnet.Graph) [][]roadnet.VertexID {
	n := g.NumVertices()
	seen := make([]bool, n)
	var comps [][]roadnet.VertexID
	queue := make([]roadnet.VertexID, 0, n)
	for v := 0; v < n; v++ {
		if seen[v] {
			continue
		}
		queue = queue[:0]
		queue = append(queue, roadnet.VertexID(v))
		seen[v] = true
		var comp []roadnet.VertexID
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			comp = append(comp, u)
			for _, e := range g.Out(u) {
				if w := g.Edge(e).To; !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
			for _, e := range g.In(u) {
				if w := g.Edge(e).From; !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// repair rebuilds g with every minor component spliced onto the
// largest one by a bidirectional Primary link between the two nearest
// representative vertices. The choice is deterministic: the main
// component is the largest (lowest vertex ID on ties), the link
// endpoint in the main component is the vertex nearest the minor
// component's centroid, and the minor endpoint is the vertex nearest
// that.
func repair(g *roadnet.Graph, comps [][]roadnet.VertexID) *roadnet.Graph {
	main := 0
	for i, c := range comps {
		if len(c) > len(comps[main]) {
			main = i
		}
	}
	b := roadnet.NewBuilder()
	for v := 0; v < g.NumVertices(); v++ {
		b.AddVertex(g.Point(roadnet.VertexID(v)))
	}
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(roadnet.EdgeID(e))
		b.AddEdgeSpeed(ed.From, ed.To, ed.Type, 3.6*ed.Length/ed.TravelTime)
	}
	for i, comp := range comps {
		if i == main {
			continue
		}
		var cx, cy float64
		for _, v := range comp {
			p := g.Point(v)
			cx += p.X
			cy += p.Y
		}
		cx /= float64(len(comp))
		cy /= float64(len(comp))
		// Nearest main-component vertex to the centroid, then the
		// nearest minor vertex to that anchor.
		anchor := nearest(g, comps[main], cx, cy)
		ap := g.Point(anchor)
		from := nearest(g, comp, ap.X, ap.Y)
		b.AddRoad(from, anchor, roadnet.Primary)
	}
	return b.Build()
}

func nearest(g *roadnet.Graph, vs []roadnet.VertexID, x, y float64) roadnet.VertexID {
	best := vs[0]
	bd := math.Inf(1)
	for _, v := range vs {
		p := g.Point(v)
		dx, dy := p.X-x, p.Y-y
		if d := dx*dx + dy*dy; d < bd {
			best, bd = v, d
		}
	}
	return best
}

// Fingerprint hashes a graph's full CSR form — vertex coordinates,
// edge records in ID order, and the per-vertex out-adjacency lists —
// into one FNV-64a value. Two graphs with equal fingerprints are
// byte-identical for every consumer in this repository; the seed
// stability tests compare it.
func Fingerprint(g *roadnet.Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		binary.BigEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	putF := func(f float64) { put(math.Float64bits(f)) }
	put(uint64(g.NumVertices()))
	put(uint64(g.NumEdges()))
	for v := 0; v < g.NumVertices(); v++ {
		p := g.Point(roadnet.VertexID(v))
		putF(p.X)
		putF(p.Y)
	}
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(roadnet.EdgeID(e))
		put(uint64(ed.From))
		put(uint64(ed.To))
		putF(ed.Length)
		putF(ed.TravelTime)
		putF(ed.Fuel)
		put(uint64(ed.Type))
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, e := range g.Out(roadnet.VertexID(v)) {
			put(uint64(e))
		}
	}
	return h.Sum64()
}
