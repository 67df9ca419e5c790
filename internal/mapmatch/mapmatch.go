package mapmatch

import (
	"math"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/route"
	"repro/internal/spatial"
)

// Config holds the matcher's one tuning parameter; a zero SigmaM is
// replaced by its default. The rest of the HMM runs at fixed settings,
// the constants below.
type Config struct {
	// SigmaM is the GPS noise standard deviation for emissions
	// (default 10, roughly 1.5–2× the simulator noise).
	SigmaM float64
}

const (
	// candidateRadiusM bounds the distance from a GPS record to
	// candidate edges.
	candidateRadiusM = 60
	// betaM is the exponential transition scale.
	betaM = 60
	// maxCandidates caps candidates per record.
	maxCandidates = 6
	// minSpacingM thins records closer together than this before
	// matching; 1 Hz feeds are heavily oversampled.
	minSpacingM = 30
	// Route distances beyond routeFactor × straight-line + routeSlackM
	// bound the Dijkstra searches and count as broken transitions.
	routeFactor = 6
	routeSlackM = 800
)

func (c Config) withDefaults() Config {
	if c.SigmaM == 0 {
		c.SigmaM = 10
	}
	return c
}

// Matcher matches GPS point sequences onto a road network. It is not
// safe for concurrent use; create one per goroutine.
type Matcher struct {
	cfg Config
	g   *roadnet.Graph
	idx *spatial.Index
	eng *route.Engine
}

// NewMatcher returns a Matcher over g using the given spatial index.
func NewMatcher(g *roadnet.Graph, idx *spatial.Index, cfg Config) *Matcher {
	return &Matcher{cfg: cfg.withDefaults(), g: g, idx: idx, eng: route.NewEngine(g)}
}

type candidate struct {
	cand spatial.EdgeCandidate
	// logEmit is the log emission probability.
	logEmit float64
}

// Match aligns the GPS points with a road-network path. It returns nil
// when no consistent alignment exists (e.g. all records are far from any
// road). It is the incremental decoder run to completion: every point
// observed, then Close.
func (m *Matcher) Match(points []geo.Point) roadnet.Path {
	o := m.NewOnline()
	for _, p := range points {
		o.Observe(p)
	}
	return o.Close()
}

// routeDistance computes the network distance between two candidate
// projection points, plus the intermediate vertex path from the first
// candidate's edge head to the second candidate's edge tail.
func (m *Matcher) routeDistance(a, b spatial.EdgeCandidate, costs map[roadnet.VertexID]float64, paths map[roadnet.VertexID]roadnet.Path) (float64, roadnet.Path, bool) {
	ea, eb := m.g.Edge(a.Edge), m.g.Edge(b.Edge)
	if a.Edge == b.Edge {
		if b.Frac >= a.Frac {
			return (b.Frac - a.Frac) * ea.Length, nil, true
		}
		// Going backwards on the same edge requires a loop; treat like
		// distinct edges below via the head-to-tail route.
	}
	tailDist := (1 - a.Frac) * ea.Length
	headDist := b.Frac * eb.Length
	d, ok := costs[eb.From]
	if !ok {
		return 0, nil, false
	}
	via := paths[eb.From]
	if eb.From == ea.To {
		via = nil
	}
	return tailDist + d + headDist, via, true
}

// boundedWithPaths runs a bounded Dijkstra from s over distance and also
// reconstructs, for each settled vertex, the intermediate vertex chain
// (excluding s itself). Trajectory gaps are short so the per-step maps
// stay small.
func (m *Matcher) boundedWithPaths(s roadnet.VertexID, bound float64) (map[roadnet.VertexID]float64, map[roadnet.VertexID]roadnet.Path) {
	costs := m.eng.BoundedCosts(s, roadnet.DI, bound)
	paths := make(map[roadnet.VertexID]roadnet.Path, len(costs))
	// Reconstruct greedily: for each settled vertex walk best
	// predecessors. Simpler: rerun a tiny Dijkstra over the settled set.
	// The settled set is small, so an O(k²)-ish reconstruction is fine;
	// we rebuild predecessor links with one pass over the induced edges.
	type pred struct {
		v roadnet.VertexID
	}
	preds := make(map[roadnet.VertexID]pred, len(costs))
	for v, dv := range costs {
		for _, eid := range m.g.In(v) {
			e := m.g.Edge(eid)
			du, ok := costs[e.From]
			if !ok {
				continue
			}
			if math.Abs(du+e.Length-dv) < 1e-6 {
				preds[v] = pred{v: e.From}
				break
			}
		}
	}
	for v := range costs {
		if v == s {
			continue
		}
		var chain roadnet.Path
		u := v
		for u != s {
			p, ok := preds[u]
			if !ok {
				chain = nil
				break
			}
			u = p.v
			if u != s {
				chain = append(chain, u)
			}
		}
		if chain == nil {
			paths[v] = roadnet.Path{}
			continue
		}
		for a, b := 0, len(chain)-1; a < b; a, b = a+1, b-1 {
			chain[a], chain[b] = chain[b], chain[a]
		}
		// chain holds intermediates s→v exclusive; prepend s's successor
		// ordering is already correct.
		paths[v] = append(roadnet.Path{s}, chain...)
	}
	paths[s] = roadnet.Path{}
	return costs, paths
}
