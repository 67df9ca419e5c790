package traj

import (
	"fmt"
	"math/rand"

	"repro/internal/ch"
	"repro/internal/geo"
	"repro/internal/pref"
	"repro/internal/roadnet"
	"repro/internal/route"
)

// SimConfig parameterizes the driver-population simulator.
type SimConfig struct {
	Seed int64
	// Trips is the number of trajectories to generate.
	Trips int
	// Drivers is the population size; trips are dealt round-robin with a
	// per-driver skew so some drivers are much more active (taxis).
	Drivers int
	// Hubs is the number of popular anchor locations; origin/destination
	// sampling is skewed toward hubs, which produces the trajectory
	// skew/sparsity the paper is about.
	Hubs int
	// HubRadiusM is how far trip endpoints scatter around a hub.
	HubRadiusM float64
	// UniformShare is the probability that an endpoint is drawn
	// uniformly instead of from a hub.
	UniformShare float64
	// MinTripM discards trips shorter than this ground-truth length.
	MinTripM float64
	// SampleMinSec and SampleMaxSec bound the GPS sampling interval; 1/1
	// gives a D1-like 1 Hz feed, 10/33 a D2-like taxi feed.
	SampleMinSec, SampleMaxSec float64
	// NoiseStdM is the GPS position noise (standard deviation, meters).
	NoiseStdM float64
	// HorizonSec is the simulated time span over which departures are
	// spread. The train/test split cuts this horizon.
	HorizonSec float64
	// ZoneGridM is the side of the latent-preference zone grid; trips
	// between the same zone pair share a latent routing preference.
	ZoneGridM float64
	// PeakShare is the probability a trip departs in a peak period.
	PeakShare float64
}

// noiseTripShare is the probability a driver ignores the latent
// preference and just takes the fastest path (imperfect drivers).
const noiseTripShare = 0.08

// D1Like returns a high-frequency, long-horizon configuration analogous
// to the paper's Danish vehicle data D1.
func D1Like(seed int64, trips int) SimConfig {
	return SimConfig{
		Seed: seed, Trips: trips,
		Drivers: 60, Hubs: 24, HubRadiusM: 2500, UniformShare: 0.18,
		MinTripM: 800, SampleMinSec: 1, SampleMaxSec: 1, NoiseStdM: 6,
		HorizonSec: 24 * 30 * 86_400, // 24 "months" of one day each scale
		ZoneGridM:  16_000, PeakShare: 0.45,
	}
}

// D2Like returns a low-frequency taxi configuration analogous to the
// paper's Chengdu data D2.
func D2Like(seed int64, trips int) SimConfig {
	return SimConfig{
		Seed: seed, Trips: trips,
		Drivers: 220, Hubs: 16, HubRadiusM: 1200, UniformShare: 0.22,
		MinTripM: 400, SampleMinSec: 10, SampleMaxSec: 33, NoiseStdM: 12,
		HorizonSec: 28 * 86_400,
		ZoneGridM:  6_000, PeakShare: 0.5,
	}
}

// PresetWorld generates the road network a command's -net flag names —
// "n1" (roadnet.N1Like), "n2" (roadnet.N2Like) or "tiny" (roadnet.Tiny)
// — from netSeed, and returns with it the simulator configuration for
// trips of that world's traffic from simSeed: D1Like on n1, D2Like on
// the other two.
func PresetWorld(network string, netSeed, simSeed int64, trips int) (*roadnet.Graph, SimConfig, error) {
	switch network {
	case "n1":
		return roadnet.Generate(roadnet.N1Like(netSeed)), D1Like(simSeed, trips), nil
	case "n2":
		return roadnet.Generate(roadnet.N2Like(netSeed)), D2Like(simSeed, trips), nil
	case "tiny":
		return roadnet.Generate(roadnet.Tiny(netSeed)), D2Like(simSeed, trips), nil
	}
	return nil, SimConfig{}, fmt.Errorf("unknown network %q", network)
}

// Simulator generates trajectories over a road network. It keeps no
// search engine: Run builds its own for the length of the run.
type Simulator struct {
	cfg SimConfig
	g   *roadnet.Graph
	rng *rand.Rand

	hubs       []geo.Point
	hubMembers [][]roadnet.VertexID
	zonesX     int
	origin     geo.Point
	driverAct  []float64 // cumulative driver activity distribution
}

// NewSimulator prepares a simulator; generation itself happens in Run.
func NewSimulator(g *roadnet.Graph, cfg SimConfig) *Simulator {
	s := &Simulator{
		cfg: cfg,
		g:   g,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	b := g.Bounds()
	s.origin = b.Min
	s.zonesX = int(b.Width()/cfg.ZoneGridM) + 1

	// Pick hub centers at random vertices, then collect each hub's
	// member vertices.
	n := g.NumVertices()
	for h := 0; h < cfg.Hubs; h++ {
		v := roadnet.VertexID(s.rng.Intn(n))
		s.hubs = append(s.hubs, g.Point(v))
	}
	s.hubMembers = make([][]roadnet.VertexID, len(s.hubs))
	for v := roadnet.VertexID(0); int(v) < n; v++ {
		p := g.Point(v)
		for h, c := range s.hubs {
			if c.Dist(p) <= cfg.HubRadiusM {
				s.hubMembers[h] = append(s.hubMembers[h], v)
			}
		}
	}
	// Zipf-ish driver activity: driver k gets weight 1/(k+1).
	s.driverAct = make([]float64, cfg.Drivers)
	var acc float64
	for k := 0; k < cfg.Drivers; k++ {
		acc += 1 / float64(k+1)
		s.driverAct[k] = acc
	}
	return s
}

// The two tables LatentPreference draws from. Master: a near-uniform
// DI/TT/FC spread, as the paper's Fig. 6(a) reports for learned
// preferences. Slave: three quarters of the zone pairs carry a
// road-condition preference, one of these six; the other two of its
// eight codes mean none. This is the part that makes local paths
// "neither fastest nor shortest" (the Ceikute & Jensen observation
// motivating the paper): road-condition preferences bend paths away from
// every single-cost optimum in a region-pair-consistent, learnable way.
var (
	latentMasters = [...]roadnet.Weight{roadnet.DI, roadnet.TT, roadnet.FC}
	latentSlaves  = [...]pref.SlaveFeature{
		pref.Highways,
		pref.SlaveOf(roadnet.Primary),
		pref.SlaveOf(roadnet.Secondary),
		pref.SlaveOf(roadnet.Residential),
		pref.SlaveOf(roadnet.Secondary, roadnet.Tertiary),
		pref.SlaveOf(roadnet.Primary, roadnet.Secondary),
	}
)

// LatentPreference returns the deterministic latent routing preference
// for trips from the zone of p to the zone of q. It is exported so tests
// and the evaluation harness can inspect the ground-truth signal.
func (s *Simulator) LatentPreference(p, q geo.Point) pref.Preference {
	zp := s.zoneOf(p)
	zq := s.zoneOf(q)
	h := splitmix(uint64(zp)*0x9E3779B97F4A7C15 ^ uint64(zq)*0xBF58476D1CE4E5B9 ^ uint64(s.cfg.Seed))
	lp := pref.Preference{Master: latentMasters[(h>>16)%3]}
	if c := (h >> 8) % 8; c < uint64(len(latentSlaves)) {
		lp.Slave = latentSlaves[c]
	}
	return lp
}

// latentMetrics lists every ⟨master, slave⟩ metric LatentPreference can
// name: the 3 masters × the 6 slaves and none.
func latentMetrics() []route.MetricKey {
	keys := make([]route.MetricKey, 0, len(latentMasters)*(len(latentSlaves)+1))
	for _, w := range latentMasters {
		keys = append(keys, route.MetricKey{W: w})
		for _, sl := range latentSlaves {
			keys = append(keys, route.MetricKey{W: w, Mask: sl.Mask()})
		}
	}
	return keys
}

func (s *Simulator) zoneOf(p geo.Point) int {
	zx := int((p.X - s.origin.X) / s.cfg.ZoneGridM)
	zy := int((p.Y - s.origin.Y) / s.cfg.ZoneGridM)
	return zy*s.zonesX + zx
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (s *Simulator) sampleEndpoint() roadnet.VertexID {
	if s.rng.Float64() < s.cfg.UniformShare || len(s.hubs) == 0 {
		return roadnet.VertexID(s.rng.Intn(s.g.NumVertices()))
	}
	// Zipf over hubs: hub k with weight 1/(k+1).
	var total float64
	for k := range s.hubs {
		total += 1 / float64(k+1)
	}
	r := s.rng.Float64() * total
	h := 0
	for k := range s.hubs {
		r -= 1 / float64(k+1)
		if r <= 0 {
			h = k
			break
		}
	}
	members := s.hubMembers[h]
	if len(members) == 0 {
		return roadnet.VertexID(s.rng.Intn(s.g.NumVertices()))
	}
	return members[s.rng.Intn(len(members))]
}

func (s *Simulator) sampleDriver() int {
	total := s.driverAct[len(s.driverAct)-1]
	r := s.rng.Float64() * total
	for k, acc := range s.driverAct {
		if r <= acc {
			return k
		}
	}
	return len(s.driverAct) - 1
}

// Run generates the configured number of trajectories. Fastest and the
// latent-preference searches run on a contraction hierarchy built for the
// run, with the 21 metrics latentMetrics names customized up front, and
// dropped when it returns; each time-minimizing driver's own travel
// times stay on Dijkstra (package doc). The trips are an all-Dijkstra
// run's, bit for bit: TestSimulatorMatchesDijkstraReference holds Run to
// it.
func (s *Simulator) Run() []*Trajectory {
	return s.run(route.NewCHEngine(s.g, ch.BuildTopology(s.g), roadnet.TT, latentMetrics()...))
}

// run generates the trips, answering Fastest and RoutePref on eng and
// each driver's CustomRoute on Dijkstra.
func (s *Simulator) run(eng route.PathEngine) []*Trajectory {
	dijkstra := route.NewEngine(s.g)
	out := make([]*Trajectory, 0, s.cfg.Trips)
	attempts := 0
	maxAttempts := s.cfg.Trips * 20
	for len(out) < s.cfg.Trips && attempts < maxAttempts {
		attempts++
		src := s.sampleEndpoint()
		dst := s.sampleEndpoint()
		if src == dst {
			continue
		}
		if s.g.Point(src).Dist(s.g.Point(dst)) < s.cfg.MinTripM {
			continue
		}
		driver := s.sampleDriver()
		var speed [roadnet.NumRoadTypes]float64 // SpeedFactor(driver, ·)
		for rt := range speed {
			speed[rt] = s.SpeedFactor(driver, roadnet.RoadType(rt))
		}

		var path roadnet.Path
		var ok bool
		lp := s.LatentPreference(s.g.Point(src), s.g.Point(dst))
		switch {
		case s.rng.Float64() < noiseTripShare:
			path, _, ok = eng.Fastest(src, dst)
		case lp.Master == roadnet.TT && lp.Slave.Empty():
			// Time-minimizing drivers perceive travel time through their
			// personal per-road-type speed factors — the signal the TRIP
			// baseline is designed to recover.
			path, _, ok = dijkstra.CustomRoute(src, dst, func(eid roadnet.EdgeID) float64 {
				ed := s.g.Edge(eid)
				return ed.TravelTime * speed[ed.Type]
			})
		default:
			path, _, ok = eng.RoutePref(src, dst, lp.Master, lp.Slave.Predicate())
		}
		if !ok || path.Length(s.g) < s.cfg.MinTripM {
			continue
		}

		t := &Trajectory{
			ID:     len(out),
			Driver: driver,
			Depart: s.rng.Float64() * s.cfg.HorizonSec,
			Peak:   s.rng.Float64() < s.cfg.PeakShare,
			Truth:  path,
		}
		t.Records = s.emitGPS(path, t.Depart, &speed)
		if len(t.Records) >= 2 {
			out = append(out, t)
		}
	}
	return out
}

// SpeedFactor returns the deterministic personal travel-time multiplier
// of a driver on a road type, in [0.85, 1.15]. GPS timestamps are
// emitted under these factors, so a travel-time learner (TRIP) can
// recover them from the records.
func (s *Simulator) SpeedFactor(driver int, rt roadnet.RoadType) float64 {
	h := splitmix(uint64(driver)*0xA24BAED4963EE407 ^ uint64(rt)*0x9FB21C651E98DF25 ^ uint64(s.cfg.Seed))
	return 0.93 + 0.14*float64(h%1024)/1023
}

// emitGPS walks the path at the driver's personalized edge speeds —
// speed[t] is their SpeedFactor on road type t — emitting noisy position
// samples at the configured interval. The first and last samples always
// land on (noisy versions of) the endpoints.
func (s *Simulator) emitGPS(path roadnet.Path, depart float64, speed *[roadnet.NumRoadTypes]float64) []GPS {
	type leg struct {
		a, b geo.Point
		dur  float64
	}
	var legs []leg
	var total float64
	for i := 1; i < len(path); i++ {
		e := s.g.FindEdge(path[i-1], path[i])
		if e == roadnet.NoEdge {
			return nil
		}
		ed := s.g.Edge(e)
		d := ed.TravelTime * speed[ed.Type]
		legs = append(legs, leg{s.g.Point(path[i-1]), s.g.Point(path[i]), d})
		total += d
	}
	if total <= 0 {
		return nil
	}

	noisy := func(p geo.Point) geo.Point {
		return geo.Pt(
			p.X+s.rng.NormFloat64()*s.cfg.NoiseStdM,
			p.Y+s.rng.NormFloat64()*s.cfg.NoiseStdM,
		)
	}
	posAt := func(t float64) geo.Point {
		for _, l := range legs {
			if t <= l.dur {
				return geo.Lerp(l.a, l.b, t/l.dur)
			}
			t -= l.dur
		}
		return legs[len(legs)-1].b
	}

	var recs []GPS
	recs = append(recs, GPS{T: depart, P: noisy(legs[0].a)})
	t := 0.0
	for {
		dt := s.cfg.SampleMinSec
		if s.cfg.SampleMaxSec > s.cfg.SampleMinSec {
			dt += s.rng.Float64() * (s.cfg.SampleMaxSec - s.cfg.SampleMinSec)
		}
		t += dt
		if t >= total {
			break
		}
		recs = append(recs, GPS{T: depart + t, P: noisy(posAt(t))})
	}
	recs = append(recs, GPS{T: depart + total, P: noisy(legs[len(legs)-1].b)})
	return recs
}
