package baseline

import (
	"repro/internal/pref"
	"repro/internal/roadnet"
	"repro/internal/route"
	"repro/internal/traj"
)

// Dom reproduces the personalized routing baseline of Yang et al. [26]
// ("Toward personalized, context-aware routing", VLDB J. 2015) as the
// paper describes it: per driver, a single global routing preference over
// distance, travel time and fuel consumption is learned from the
// driver's historical trajectories by comparing them against skyline
// (Pareto-optimal scalarization) paths; queries then run a
// multi-objective search — several scalarized Dijkstras approximating
// the skyline — and return the candidate that best matches the learned
// preference. The multi-Dijkstra query is what makes Dom markedly
// slower than single-objective routing, the behaviour Fig. 12 reports.
type Dom struct {
	g   *roadnet.Graph
	eng *route.Engine
	// weights maps driver -> learned (a, b, c) scalarization over
	// normalized (DI km, TT min, FC l).
	weights map[int][3]float64
	// fallback is used for drivers with no training data.
	fallback [3]float64
}

// domGrid is the scalarization simplex grid searched during learning and
// during the query-time skyline approximation.
var domGrid = [][3]float64{
	{1, 0, 0}, {0, 1, 0}, {0, 0, 1},
	{0.5, 0.5, 0}, {0.5, 0, 0.5}, {0, 0.5, 0.5},
	{0.34, 0.33, 0.33},
	{0.7, 0.2, 0.1}, {0.1, 0.7, 0.2}, {0.2, 0.1, 0.7},
}

// NewDom learns per-driver preferences from the training trajectories.
// MaxTrainPerDriver caps learning cost (0 means 5).
func NewDom(g *roadnet.Graph, training []*traj.Trajectory, maxTrainPerDriver int) *Dom {
	if maxTrainPerDriver <= 0 {
		maxTrainPerDriver = 5
	}
	d := &Dom{
		g:        g,
		eng:      route.NewEngine(g),
		weights:  make(map[int][3]float64),
		fallback: [3]float64{0.34, 0.33, 0.33},
	}
	byDriver := make(map[int][]*traj.Trajectory)
	for _, t := range training {
		if len(t.Truth) >= 2 && len(byDriver[t.Driver]) < maxTrainPerDriver {
			byDriver[t.Driver] = append(byDriver[t.Driver], t)
		}
	}
	for driver, ts := range byDriver {
		best := d.fallback
		bestSim := -1.0
		for _, w := range domGrid {
			var total float64
			for _, t := range ts {
				cand, _, ok := d.routeWith(w, t.Source(), t.Destination())
				if !ok {
					continue
				}
				total += pref.SimEq1(g, t.Truth, cand)
			}
			if sim := total / float64(len(ts)); sim > bestSim {
				bestSim, best = sim, w
			}
		}
		d.weights[driver] = best
	}
	return d
}

// normalization constants bringing the three weight units to comparable
// magnitude: meters→km, seconds→minutes, liters stay liters.
const (
	domDiScale = 1.0 / 1000
	domTtScale = 1.0 / 60
	domFcScale = 10.0
)

func (d *Dom) routeWith(w [3]float64, s, t roadnet.VertexID) (roadnet.Path, float64, bool) {
	return d.eng.CustomRoute(s, t, func(eid roadnet.EdgeID) float64 {
		ed := d.g.Edge(eid)
		return w[0]*ed.Length*domDiScale + w[1]*ed.TravelTime*domTtScale + w[2]*ed.Fuel*domFcScale
	})
}

// Name implements Algorithm.
func (d *Dom) Name() string { return "Dom" }

// DriverWeights exposes the learned scalarization for tests.
func (d *Dom) DriverWeights(driver int) ([3]float64, bool) {
	w, ok := d.weights[driver]
	return w, ok
}

// Route implements Algorithm: approximate the skyline with one Dijkstra
// per grid scalarization, then return the candidate scoring best under
// the driver's learned weights. The deliberate multi-search is the
// paper-reported source of Dom's high query latency.
func (d *Dom) Route(q Query) roadnet.Path {
	learned, ok := d.weights[q.Driver]
	if !ok {
		learned = d.fallback
	}
	var best roadnet.Path
	bestScore := -1.0
	for _, w := range domGrid {
		cand, _, ok := d.routeWith(w, q.S, q.D)
		if !ok {
			continue
		}
		score := -d.scalarCost(cand, learned)
		if best == nil || score > bestScore {
			best, bestScore = cand, score
		}
	}
	return best
}

func (d *Dom) scalarCost(p roadnet.Path, w [3]float64) float64 {
	var c float64
	for i := 1; i < len(p); i++ {
		e := d.g.FindEdge(p[i-1], p[i])
		if e == roadnet.NoEdge {
			continue
		}
		ed := d.g.Edge(e)
		c += w[0]*ed.Length*domDiScale + w[1]*ed.TravelTime*domTtScale + w[2]*ed.Fuel*domFcScale
	}
	return c
}
