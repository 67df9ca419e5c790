package serve

import (
	"cmp"
	"math"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/region"
)

// Drift says how far live ingest has moved the served snapshot's
// learned and transferred preference mix away from the model last
// installed — by NewEngine, or by a publish (Engine.Publish or a
// RebuildSnapshot landing). Each snapshot computes it at most once;
// QualityStats carries it, and the maintainer's drift trigger reads its
// DriftTV.
type Drift struct {
	// DriftTV is the total-variation distance between the evidence-weighted
	// preference distribution of the served snapshot and that of the
	// baseline model. 0 = serving exactly the baseline's preferences;
	// 1 = the accumulated evidence backs a completely different mix.
	DriftTV float64 `json:"drift_tv"`
	// BaselineGeneration is the snapshot generation the baseline model
	// was installed at.
	BaselineGeneration uint64 `json:"baseline_generation"`

	// RegionCoverage is the fraction of regions with at least one
	// incident T-edge (trajectory-backed evidence); RegionsWithEvidence
	// and Regions are its numerator and denominator.
	RegionCoverage      float64 `json:"region_coverage"`
	RegionsWithEvidence int     `json:"regions_with_evidence"`
	Regions             int     `json:"regions"`
}

// Drift returns the drift block of the served snapshot, computing it on
// the first call for that snapshot. It takes no lock the write path
// holds.
func (e *Engine) Drift() Drift {
	return e.snap.Load().driftOf()
}

func (s *snapshot) driftOf() Drift {
	s.driftOnce.Do(func() {
		rg := s.base.RegionGraph()
		d := Drift{
			DriftTV:             tvDistance(s.books.baseline.dist, prefDistOf(rg)),
			BaselineGeneration:  s.books.baseline.gen,
			Regions:             rg.NumRegions(),
			RegionsWithEvidence: regionsWithEvidence(rg),
		}
		if d.Regions > 0 {
			d.RegionCoverage = float64(d.RegionsWithEvidence) / float64(d.Regions)
		}
		s.drift = d
	})
	return s.drift
}

// baseline is what NewEngine or a publish records of the model it
// installs.
type baseline struct {
	gen       uint64    // the generation it was installed as
	dist      prefDist  // its preference distribution, which Drift compares against
	at        time.Time // when it was installed
	tedges    int       // its T-edge count
	paths     uint64    // books.paths at the install
	recovered int       // trajectories start-up recovery replayed onto it (NewDurableEngine)
}

// install is the baseline of r installed as generation gen.
func install(r *core.Router, gen, paths uint64, recovered int) baseline {
	rg := r.RegionGraph()
	return baseline{gen: gen, dist: prefDistOf(rg), at: time.Now(), tedges: rg.TEdgeCount(), paths: paths, recovered: recovered}
}

// Accrual is the evidence the served snapshot holds beyond the model
// last installed — by NewEngine, Engine.Publish or a RebuildSnapshot
// landing. The maintainer's evidence and timer triggers read it.
type Accrual struct {
	Generation      uint64    // the snapshot generation it was read from
	Paths           uint64    // paths ingests folded in (IngestStats.Paths) since the engine was built
	SinceInstall    int       // paths folded in since the install, Recovered included
	Recovered       int       // trajectories start-up recovery replayed, until the first publish
	InstalledAt     time.Time // when the installed model was installed
	InstalledTEdges int       // the installed model's T-edge count
}

// Accrual reads the served snapshot's accrual: one snapshot load, no
// lock.
func (e *Engine) Accrual() Accrual {
	s := e.snap.Load()
	b := &s.books
	return Accrual{
		Generation:      s.gen,
		Paths:           b.paths,
		SinceInstall:    int(b.paths-b.baseline.paths) + b.baseline.recovered,
		Recovered:       b.baseline.recovered,
		InstalledAt:     b.baseline.at,
		InstalledTEdges: b.baseline.tedges,
	}
}

// prefMass is one outcome of a preference distribution and its share:
// a learned ⟨master, slave⟩ preference (key master<<8 | slave), or the
// "no preference" mass (key -1) of T-edges whose evidence did not clear
// the confidence bar.
type prefMass struct {
	key  int
	mass float64
}

// prefDist is an evidence-weighted distribution over preference
// outcomes, sorted by key: each T-edge contributes its stored path
// count (the number of trajectory fragments backing it) to its
// preference's mass, normalized to sum to 1.
type prefDist []prefMass

// prefDistOf builds the evidence-weighted preference distribution of a
// region graph's T-edges. Published snapshots are immutable (ingest
// mutates a copy-on-write clone and swaps), so reading a served
// snapshot's graph here is safe.
func prefDistOf(rg *region.Graph) prefDist {
	byKey := make(map[int]float64)
	total := 0.0
	for _, e := range rg.Edges {
		if e.Kind != region.TEdge {
			continue
		}
		w := 0.0
		for _, pi := range e.PathsFwd {
			w += float64(pi.Count)
		}
		for _, pi := range e.PathsRev {
			w += float64(pi.Count)
		}
		w = max(w, 1) // an edge without stored paths still counts once
		key := -1
		if e.HasPref {
			key = int(e.Pref.Master)<<8 | int(e.Pref.Slave)
		}
		byKey[key] += w
		total += w
	}
	dist := make(prefDist, 0, len(byKey))
	for k, w := range byKey {
		dist = append(dist, prefMass{key: k, mass: w / total})
	}
	slices.SortFunc(dist, func(a, b prefMass) int { return cmp.Compare(a.key, b.key) })
	return dist
}

// tvDistance is the total-variation distance between two distributions:
// half the L1 distance over the union of outcomes, in [0, 1]. It walks
// both in key order, so the same pair always sums to the same bits.
func tvDistance(a, b prefDist) float64 {
	sum := 0.0
	for len(a) > 0 || len(b) > 0 {
		switch {
		case len(b) == 0 || len(a) > 0 && a[0].key < b[0].key:
			sum += a[0].mass
			a = a[1:]
		case len(a) == 0 || b[0].key < a[0].key:
			sum += b[0].mass
			b = b[1:]
		default:
			sum += math.Abs(a[0].mass - b[0].mass)
			a, b = a[1:], b[1:]
		}
	}
	return sum / 2
}

// regionsWithEvidence counts regions incident to at least one T-edge.
func regionsWithEvidence(rg *region.Graph) int {
	seen := make([]bool, rg.NumRegions())
	n := 0
	for _, e := range rg.Edges {
		if e.Kind != region.TEdge {
			continue
		}
		for _, r := range [2]int32{e.R1, e.R2} {
			if r >= 0 && int(r) < len(seen) && !seen[r] {
				seen[r] = true
				n++
			}
		}
	}
	return n
}
