package region

import "repro/internal/roadnet"

// ConnectBFS implements the paper's BFS construction of B-edges: for
// each region, a breadth-first search over the original road network
// starts from the region's vertices; when the search reaches a vertex of
// a different region it stops expanding there, and if the two regions
// share no region edge yet, a B-edge is added. The result is a connected
// region graph whenever the underlying road network is connected.
//
// The per-vertex BFS of the paper is equivalent to one multi-source BFS
// per region, which is what we run. It returns the number of B-edges
// created.
func (g *Graph) ConnectBFS() int {
	n := g.Road.NumVertices()
	state := make([]int32, n) // region id + 1 marking visited in this run
	queue := make([]roadnet.VertexID, 0, 1024)
	created := 0

	for r := range g.Regions {
		mark := int32(r + 1)
		queue = queue[:0]
		for _, v := range g.Regions[r].Members {
			state[v] = mark
			queue = append(queue, v)
		}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			ur := g.RegionOf(u)
			if ur >= 0 && ur != r {
				// Foreign region: connect but do not expand further, so
				// the search cannot tunnel through region Rj into Rk.
				if g.FindEdge(r, ur) == nil {
					g.edge(r, ur, BEdge)
					created++
				}
				continue
			}
			for _, eid := range g.Road.Out(u) {
				if w := g.Road.Edge(eid).To; state[w] != mark {
					state[w] = mark
					queue = append(queue, w)
				}
			}
			for _, eid := range g.Road.In(u) {
				if w := g.Road.Edge(eid).From; state[w] != mark {
					state[w] = mark
					queue = append(queue, w)
				}
			}
		}
		// Reset marks lazily by using distinct marks per region; state
		// entries keep stale marks that never collide because mark is
		// unique per region run.
	}
	return created
}

// Connected reports whether the region graph is connected (ignoring
// graphs with no regions, which count as connected).
func (g *Graph) Connected() bool {
	if len(g.Regions) == 0 {
		return true
	}
	seen := make([]bool, len(g.Regions))
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, l := range g.adj[r] {
			if o := int(l.To); !seen[o] {
				seen[o] = true
				count++
				stack = append(stack, o)
			}
		}
	}
	return count == len(g.Regions)
}
