package region

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/roadnet"
	"repro/internal/worldgen"
)

// checkAdjacency holds every region's adjacency to the edge list it
// indexes: each list strictly ascending in To, each entry's To the far
// end of its edge from the list's region, and every edge listed exactly
// once in each of its two regions' lists.
func checkAdjacency(t *testing.T, where string, g *Graph) {
	t.Helper()
	atR1, atR2 := make([]int, len(g.Edges)), make([]int, len(g.Edges))
	for r := range g.NumRegions() {
		links := g.Links(r)
		for i, l := range links {
			if i > 0 && links[i-1].To >= l.To {
				t.Fatalf("%s: region %d lists neighbor %d after %d", where, r, l.To, links[i-1].To)
			}
			if l.Edge < 0 || int(l.Edge) >= len(g.Edges) {
				t.Fatalf("%s: region %d lists edge %d of %d", where, r, l.Edge, len(g.Edges))
			}
			e := g.Edges[l.Edge]
			switch r {
			case e.R1:
				atR1[l.Edge]++
			case e.R2:
				atR2[l.Edge]++
			default:
				t.Fatalf("%s: region %d lists edge %d, which joins %d and %d", where, r, l.Edge, e.R1, e.R2)
			}
			if int(l.To) != e.Other(r) {
				t.Fatalf("%s: region %d lists edge %d to %d, but it leads to %d", where, r, l.Edge, l.To, e.Other(r))
			}
		}
	}
	for id := range g.Edges {
		if atR1[id] != 1 || atR2[id] != 1 {
			t.Fatalf("%s: edge %d listed %d times at R1 and %d at R2, want once at each", where, id, atR1[id], atR2[id])
		}
	}
}

// TestAdjacencyMatchesEdges checks the adjacency invariant on a
// worldgen city after every step that writes an adjacency: Build,
// ConnectBFS, a round trip through the graph's image (Append, Decode),
// and AddPaths on two chained CloneCOW generations of the decoded
// graph, whose earlier generations must keep theirs.
func TestAdjacencyMatchesEdges(t *testing.T) {
	w := worldgen.Build(worldgen.ForVertices(400, 3))
	paths := make([]roadnet.Path, len(w.Train))
	for i, tr := range w.Train {
		paths[i] = tr.Truth
	}
	half := len(paths) / 2
	regions := cluster.Cluster(cluster.BuildTrajectoryGraph(w.Road, paths[:half]), cluster.Options{})
	g := Build(w.Road, regions, paths[:half], Options{})
	checkAdjacency(t, "Build", g)
	if g.ConnectBFS() == 0 {
		t.Fatal("ConnectBFS created no B-edge; the check has no teeth")
	}
	checkAdjacency(t, "ConnectBFS", g)

	decoded, err := Decode(imageOf(g), w.Road)
	if err != nil {
		t.Fatal(err)
	}
	checkAdjacency(t, "Decode", decoded)

	gens := []*Graph{decoded}
	created := 0
	for i, batch := range [][]roadnet.Path{paths[half : half+half/2], paths[half+half/2:]} {
		next := gens[len(gens)-1].CloneCOW()
		created += next.AddPaths(batch, Options{}).NewEdges
		gens = append(gens, next)
		for j, gen := range gens {
			checkAdjacency(t, fmt.Sprintf("generation %d after batch %d", j, i+1), gen)
		}
	}
	if created == 0 {
		t.Fatal("AddPaths created no edge on either clone; the check has no teeth")
	}
}
