package pref

import (
	"repro/internal/roadnet"
	"repro/internal/route"
)

// Exhaustive is Section V-A's coordinate descent read literally — the
// learner as it stood before search elimination: every ⟨master, slave⟩
// evaluation runs one Algorithm 2 search per sampled path on plain
// Dijkstra and scores it with the exported SimEq1. It is the oracle the
// exactness tests hold Learner to, bit for bit.
type Exhaustive struct {
	cfg *Learner // sampling configuration only
	g   *roadnet.Graph
	eng *route.Engine
	// Searches counts the searches run.
	Searches int
}

// NewExhaustive returns the reference learner over g with the default
// settings of NewLearner.
func NewExhaustive(g *roadnet.Graph) *Exhaustive {
	return &Exhaustive{cfg: NewLearner(g), g: g, eng: route.NewEngine(g)}
}

// Learn is the reference for Learner.Learn.
func (x *Exhaustive) Learn(paths []roadnet.Path) Result {
	sample := x.cfg.sampleInto(nil, paths)
	if len(sample) == 0 {
		return Result{Preference: Preference{Master: roadnet.TT}, Similarity: 0}
	}
	sims := make([]float64, roadnet.NumCostWeights)
	for w := roadnet.Weight(0); w < roadnet.NumCostWeights; w++ {
		sims[w] = x.avgSim(sample, w, NoSlave)
	}
	first, second := roadnet.Weight(0), roadnet.Weight(1)
	if sims[second] > sims[first] {
		first, second = second, first
	}
	for w := roadnet.Weight(2); w < roadnet.NumCostWeights; w++ {
		switch {
		case sims[w] > sims[first]:
			first, second = w, first
		case sims[w] > sims[second]:
			second = w
		}
	}
	best := Preference{Master: first, Slave: NoSlave}
	bestSim := sims[first]
	for _, m := range []roadnet.Weight{first, second} {
		for _, s := range candidates {
			sim := x.avgSim(sample, m, s)
			if sim > bestSim+minImprovement {
				bestSim = sim
				best = Preference{Master: m, Slave: s}
			}
		}
	}
	return Result{Preference: best, Similarity: bestSim, PathsUsed: len(sample)}
}

func (x *Exhaustive) avgSim(paths []roadnet.Path, w roadnet.Weight, s SlaveFeature) float64 {
	var total float64
	for _, gt := range paths {
		x.Searches++
		cand, _, ok := x.eng.RoutePref(gt[0], gt[len(gt)-1], w, s.Predicate())
		if !ok {
			continue
		}
		total += SimEq1(x.g, gt, cand)
	}
	return total / float64(len(paths))
}

// LearnPerPath is the reference for Learner.LearnPerPath.
func (x *Exhaustive) LearnPerPath(paths []roadnet.Path) []Result {
	out := make([]Result, 0, len(paths))
	for _, p := range paths {
		if len(p) < 2 {
			continue
		}
		out = append(out, x.Learn([]roadnet.Path{p}))
	}
	return out
}
