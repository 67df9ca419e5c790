package traj

import "repro/internal/route"

// RunOn is Run with eng answering Fastest and the latent-preference
// searches; RunOn(route.NewEngine(g)) is the all-Dijkstra run Run is
// held to.
func (s *Simulator) RunOn(eng route.PathEngine) []*Trajectory { return s.run(eng) }
