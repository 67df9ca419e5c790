package cluster

import (
	"sort"

	"repro/internal/container"
	"repro/internal/roadnet"
)

// node is the mutable clustering state for one simple or aggregate
// vertex.
type node struct {
	alive     bool
	aggregate bool
	rt        roadnet.RoadType // valid when aggregate
	pop       float64          // S_i
	members   []roadnet.VertexID
	adj       map[int]*tgEdge
}

// Cluster runs Algorithm 1 (BottomUpClustering) over the trajectory
// graph and returns the resulting regions. Like the paper's method it
// takes no parameter. It is deterministic: ties in the priority queue
// resolve by insertion order of the underlying heap operations, which
// depend only on the input.
func Cluster(tg *TrajectoryGraph) []Region {
	n := tg.NumVertices()
	// Clustering mutates adjacency, so copy it. Node IDs: 0..n-1 are the
	// original simple vertices; merged aggregates reuse the ID of the
	// vertex that initiated the merge (vk), as in the paper's
	// presentation where vk absorbs its neighbours.
	nodes := make([]node, n)
	for i := 0; i < n; i++ {
		nodes[i] = node{
			alive:   true,
			members: []roadnet.VertexID{tg.verts[i]},
			adj:     make(map[int]*tgEdge, len(tg.adj[i])),
		}
	}
	// Both directions of an undirected edge share one struct so merges
	// that accumulate popularity stay consistent from either side.
	for i := 0; i < n; i++ {
		for j, e := range tg.adj[i] {
			if j < i {
				continue
			}
			cp := *e
			nodes[i].adj[j] = &cp
			nodes[j].adj[i] = &cp
			nodes[i].pop += e.s
			nodes[j].pop += e.s
		}
	}
	S := tg.TotalPopularity()
	if S == 0 {
		S = 1
	}

	pq := container.NewIndexedMaxHeap(n)
	for i := range nodes {
		pq.Push(i, nodes[i].pop)
	}

	// deltaQ is the modularity gain of merging i and j (must be
	// adjacent).
	deltaQ := func(i, j int) float64 {
		e := nodes[i].adj[j]
		if e == nil {
			return 0
		}
		return e.s/S - nodes[i].pop*nodes[j].pop/(S*S)
	}

	// checkQ implements CheckQ(vk, vj): positive modularity gain plus
	// the road-type conditions of Table I.
	checkQ := func(k, j int) bool {
		if deltaQ(k, j) <= 0 {
			return false
		}
		vk, vj := &nodes[k], &nodes[j]
		ert := vk.adj[j].roadType()
		switch {
		case !vk.aggregate && !vj.aggregate:
			return true
		case vk.aggregate && !vj.aggregate:
			return vk.rt == ert
		case !vk.aggregate && vj.aggregate:
			return vj.rt == ert
		default:
			return vk.rt == vj.rt
		}
	}

	removeEdge := func(i, j int) {
		delete(nodes[i].adj, j)
		delete(nodes[j].adj, i)
	}

	// merge absorbs j into k (MergeSS/MergeAS/MergeAA are all the same
	// mechanical operation once Table I has been checked).
	merge := func(k, j int) {
		vk, vj := &nodes[k], &nodes[j]
		if !vk.aggregate {
			// The new aggregate's road type is the type of the merging
			// edge (MergeSS) — for MergeAS/MergeAA Table I guarantees it
			// matches anyway.
			vk.rt = vk.adj[j].roadType()
			vk.aggregate = true
		}
		vk.pop += vj.pop
		vk.members = append(vk.members, vj.members...)
		removeEdge(k, j)
		for nb, e := range vj.adj {
			if nb == k {
				continue
			}
			// Re-point j's edges at k, combining parallel edges.
			ke := vk.adj[nb]
			if ke == nil {
				cp := *e
				vk.adj[nb] = &cp
				nodes[nb].adj[k] = vk.adj[nb]
			} else {
				ke.s += e.s
				for t := range ke.types {
					ke.types[t] += e.types[t]
				}
				// nb's map already points at ke via key k; drop dup key.
			}
			delete(nodes[nb].adj, j)
		}
		vj.alive = false
		vj.adj = nil
		vj.members = nil
	}

	var regions []Region
	for pq.Len() > 0 {
		k, _ := pq.PopMax()
		vk := &nodes[k]
		if !vk.alive {
			continue
		}
		if len(vk.adj) == 0 {
			// Line 19: vk becomes a region.
			rt := vk.rt
			if !vk.aggregate {
				rt = dominantIncidentType(tg, vk.members[0])
			}
			r := Region{
				ID:         len(regions),
				Members:    vk.members,
				RoadType:   rt,
				Popularity: vk.pop,
			}
			r.sortMembers()
			regions = append(regions, r)
			vk.alive = false
			continue
		}

		// Lines 8–10: qualification check over adjacent vertices. The
		// adjacency map is scanned in sorted order so heap operations —
		// and therefore tie-breaking among equal popularities — are
		// deterministic.
		va := make([]int, 0, len(vk.adj))
		for j := range vk.adj {
			va = append(va, j)
		}
		sort.Ints(va)
		var vb []int
		for _, j := range va {
			if checkQ(k, j) {
				vb = append(vb, j)
			}
		}

		// Line 11: SelectM.
		vbPrime := selectM(&nodes[k], vb)

		// Lines 12–13: cut edges to VA \ VB'.
		inPrime := make(map[int]bool, len(vbPrime))
		for _, j := range vbPrime {
			inPrime[j] = true
		}
		for _, j := range va {
			if !inPrime[j] {
				removeEdge(k, j)
			}
		}

		// Lines 14–17: merge VB' into vk and reinsert.
		for _, j := range vbPrime {
			if pq.Contains(j) {
				pq.Remove(j)
			}
			merge(k, j)
		}
		pq.Push(k, vk.pop)
	}
	return regions
}

// selectM implements SelectM(vk, VB): if vk is an aggregate, all
// qualified vertices merge (Table I already enforced type agreement);
// if vk is simple, the largest subset of VB whose connecting edges share
// one road type merges.
func selectM(vk *node, vb []int) []int {
	if len(vb) == 0 {
		return nil
	}
	if vk.aggregate {
		return vb
	}
	byType := make(map[roadnet.RoadType][]int)
	for _, j := range vb {
		rt := vk.adj[j].roadType()
		byType[rt] = append(byType[rt], j)
	}
	var best []int
	for t := roadnet.RoadType(0); t < roadnet.NumRoadTypes; t++ {
		if g := byType[t]; len(g) > len(best) {
			best = g
		}
	}
	return best
}

// dominantIncidentType returns the most popular road type among the
// trajectory-graph edges incident to v in the *original* trajectory
// graph; Residential if v had none.
func dominantIncidentType(tg *TrajectoryGraph, v roadnet.VertexID) roadnet.RoadType {
	i, ok := tg.index[v]
	if !ok {
		return roadnet.Residential
	}
	var counts [roadnet.NumRoadTypes]float64
	for _, e := range tg.adj[i] {
		for t := range counts {
			counts[t] += e.types[t]
		}
	}
	best := roadnet.Residential
	bestC := 0.0
	for t := roadnet.RoadType(0); t < roadnet.NumRoadTypes; t++ {
		if counts[t] > bestC {
			best, bestC = t, counts[t]
		}
	}
	return best
}

// Modularity computes the modularity of a vertex partition over the
// trajectory graph: Q = Σ_c (in_c/S − (tot_c/S)²) with in_c the internal
// popularity of cluster c and tot_c its total incident popularity. Used
// by tests and the clustering ablation.
func Modularity(tg *TrajectoryGraph, regions []Region) float64 {
	S := tg.TotalPopularity()
	if S == 0 {
		return 0
	}
	regOf := make(map[roadnet.VertexID]int)
	for _, r := range regions {
		for _, v := range r.Members {
			regOf[v] = r.ID
		}
	}
	in := make([]float64, len(regions))
	tot := make([]float64, len(regions))
	for i, v := range tg.verts {
		ri, ok := regOf[v]
		if !ok {
			continue
		}
		for j, e := range tg.adj[i] {
			tot[ri] += e.s
			if rj, ok2 := regOf[tg.verts[j]]; ok2 && rj == ri {
				in[ri] += e.s
			}
		}
	}
	var q float64
	for c := range in {
		// in and tot double-count each undirected edge once per
		// endpoint, so in_c/(2S) and tot_c/(2S) with S as the sum of
		// popularity over undirected edges... The trajectory graph
		// stores S as the undirected sum, and in/tot above are doubled,
		// so normalize by 2S.
		q += in[c]/(2*S) - (tot[c]/(2*S))*(tot[c]/(2*S))
	}
	return q
}
