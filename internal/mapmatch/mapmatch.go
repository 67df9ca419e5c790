package mapmatch

import (
	"math"
	"slices"

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

// routeDistance returns the network distance from candidate a's
// projection point to b's. Unless both lie on one edge, b forward of a,
// it reads the labels of the bounded search last run from a's edge
// head: ok is false when b's edge tail was not settled within the bound.
func (m *Matcher) routeDistance(a, b spatial.EdgeCandidate) (float64, bool) {
	ea, eb := m.g.Edge(a.Edge), m.g.Edge(b.Edge)
	if a.Edge == b.Edge && b.Frac >= a.Frac {
		return (b.Frac - a.Frac) * ea.Length, true
	}
	// Going backwards on the same edge requires a loop; it is routed
	// head to tail like a pair of distinct edges.
	d, ok := m.eng.Settled(eb.From)
	if !ok {
		return 0, false
	}
	return (1-a.Frac)*ea.Length + d + b.Frac*eb.Length, true
}

// appendVia appends to dst the via chain of the transition from
// candidate a to b that routeDistance just scored: the vertices from
// a's edge head s up to, not including, b's edge tail v. It walks back
// from v along the first in-edge, in In order, whose tail is settled
// and tight (its cost plus the edge's length is v's cost within 1e-6),
// and appends nothing when v is s, when the walk goes straight from v
// to s, or when it meets a vertex with no such in-edge.
func (m *Matcher) appendVia(dst roadnet.Path, a, b spatial.EdgeCandidate) roadnet.Path {
	if a.Edge == b.Edge && b.Frac >= a.Frac {
		return dst
	}
	s, v := m.g.Edge(a.Edge).To, m.g.Edge(b.Edge).From
	start := len(dst)
	for u := v; u != s; {
		du, _ := m.eng.Settled(u)
		next := u
		for _, eid := range m.g.In(u) {
			e := m.g.Edge(eid)
			if dt, ok := m.eng.Settled(e.From); ok && math.Abs(dt+e.Length-du) < 1e-6 {
				next = e.From
				break
			}
		}
		if next == u {
			return dst[:start]
		}
		if u = next; u != s {
			dst = append(dst, u)
		}
	}
	if len(dst) == start {
		return dst
	}
	dst = append(dst, s)
	slices.Reverse(dst[start:])
	return dst
}
