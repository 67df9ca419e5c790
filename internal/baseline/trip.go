package baseline

import (
	"repro/internal/roadnet"
	"repro/internal/route"
	"repro/internal/traj"
)

// TRIP reproduces Letchner, Krumm & Horvitz's "Trip Router with
// Individualized Preferences" (AAAI 2006) as the paper characterizes it:
// per driver, ratios between the driver's observed travel times and the
// network's nominal travel times are learned from historical
// trajectories, and routing minimizes the personalized travel times.
// We learn the ratio per road type — drivers in the GPS data are
// systematically faster or slower on different road classes — and run a
// single Dijkstra per query, so TRIP's latency matches Shortest/Fastest
// (Fig. 12) while its accuracy tracks Fastest closely (Fig. 10/11).
type TRIP struct {
	g   *roadnet.Graph
	eng *route.Engine
	// ratios maps driver -> per-road-type observed/nominal travel-time
	// ratio.
	ratios map[int][roadnet.NumRoadTypes]float64
}

// NewTRIP learns per-driver travel-time ratios from training
// trajectories by comparing GPS-record timing with nominal edge travel
// times along the matched (or ground-truth) path.
func NewTRIP(g *roadnet.Graph, training []*traj.Trajectory) *TRIP {
	type acc struct {
		obs, nom [roadnet.NumRoadTypes]float64
	}
	accs := make(map[int]*acc)
	for _, t := range training {
		path := t.Path()
		if len(path) < 2 || len(t.Records) < 2 {
			continue
		}
		a := accs[t.Driver]
		if a == nil {
			a = &acc{}
			accs[t.Driver] = a
		}
		// Apportion the observed trip duration over road types in
		// proportion to nominal edge times; with per-type speed factors
		// in the data this recovers the type-level ratios on average.
		var nominal [roadnet.NumRoadTypes]float64
		var nomTotal float64
		for i := 1; i < len(path); i++ {
			e := g.FindEdge(path[i-1], path[i])
			if e == roadnet.NoEdge {
				continue
			}
			ed := g.Edge(e)
			nominal[ed.Type] += ed.TravelTime
			nomTotal += ed.TravelTime
		}
		if nomTotal <= 0 {
			continue
		}
		observed := t.Duration()
		for rt := range nominal {
			if nominal[rt] > 0 {
				a.nom[rt] += nominal[rt]
				a.obs[rt] += observed * nominal[rt] / nomTotal
			}
		}
	}
	tr := &TRIP{g: g, eng: route.NewEngine(g), ratios: make(map[int][roadnet.NumRoadTypes]float64)}
	for driver, a := range accs {
		var r [roadnet.NumRoadTypes]float64
		for rt := range r {
			if a.nom[rt] > 0 {
				r[rt] = a.obs[rt] / a.nom[rt]
			} else {
				r[rt] = 1
			}
		}
		tr.ratios[driver] = r
	}
	return tr
}

// Name implements Algorithm.
func (t *TRIP) Name() string { return "TRIP" }

// Ratio exposes a learned ratio for tests.
func (t *TRIP) Ratio(driver int, rt roadnet.RoadType) float64 {
	if r, ok := t.ratios[driver]; ok {
		return r[rt]
	}
	return 1
}

// Route implements Algorithm: single-objective Dijkstra over the
// driver's personalized travel times.
func (t *TRIP) Route(q Query) roadnet.Path {
	r, ok := t.ratios[q.Driver]
	if !ok {
		p, _, _ := t.eng.Fastest(q.S, q.D)
		return p
	}
	p, _, _ := t.eng.CustomRoute(q.S, q.D, func(eid roadnet.EdgeID) float64 {
		ed := t.g.Edge(eid)
		return ed.TravelTime * r[ed.Type]
	})
	return p
}
