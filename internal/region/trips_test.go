package region

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"repro/internal/roadnet"
)

// TestCloneCOWSharesTripTable: two clones of one graph ingesting at
// once each link one new batch, holding exactly their own trips, onto
// the parent's trip table and copy none of it; neither sees the other's
// trips — each writes the image a deep copy writes after the same batch
// — and the parent's image does not move. Run it under -race.
func TestCloneCOWSharesTripTable(t *testing.T) {
	g, _ := cloneWorld(t)
	parent := imageOf(g)
	batches := [][]roadnet.Path{
		{{0, 1, 2, 3, 4, 5, 6, 7}, {3, 4, 5}},
		{{11, 10, 9, 8, 7, 6, 5, 4}},
	}
	clones := []*Graph{g.CloneCOW(), g.CloneCOW()}
	var wg sync.WaitGroup
	for i, cp := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cp.AddPaths(batches[i], Options{})
		}()
	}
	wg.Wait()
	for i, cp := range clones {
		n := 0
		for _, p := range batches[i] {
			n += len(p)
		}
		if b := cp.trips; b.prev != g.trips || b.first != g.trips.next() || len(b.ends) != len(batches[i]) || cap(b.verts) != n {
			t.Fatalf("clone %d: its newest batch (first %d, %d trips, %d vertices) does not hold its %d trips of %d vertices on the parent's table", i, b.first, len(b.ends), cap(b.verts), len(batches[i]), n)
		}
		ref := g.Clone()
		ref.AddPaths(batches[i], Options{})
		if !bytes.Equal(imageOf(cp), imageOf(ref)) {
			t.Fatalf("clone %d's image is not the one a deep copy writes after the same batch", i)
		}
	}
	if !bytes.Equal(imageOf(g), parent) {
		t.Fatal("the parent's image moved while its clones ingested")
	}
}

// TestUnreferencedTripsAreDropped: a trip no stored path names is not
// written — here the materialized paths of a B-edge an ingest upgraded
// — and a materialization, which follows a rebuild's clearing of every
// B-edge, unlinks the batches nothing names any more from the clone's
// table, never from its parent's.
func TestUnreferencedTripsAreDropped(t *testing.T) {
	g, _ := cloneWorld(t)
	b := g.FindEdge(1, 2)
	if b == nil || b.Kind != BEdge {
		t.Fatal("regions 1 and 2 are not joined by a B-edge")
	}
	g.AddBEdgePaths([]BPath{{Edge: b.ID, From: 1, Path: roadnet.Path{5, 6, 7}}, {Edge: b.ID, From: 2, Path: roadnet.Path{7, 6, 5}}})
	materialized := g.trips
	writtenTrips := func(g *Graph) []roadnet.Path {
		d, err := Decode(imageOf(g), g.Road)
		if err != nil {
			t.Fatal(err)
		}
		var out []roadnet.Path
		for i := range d.trips.ends {
			out = append(out, d.trips.trip(i))
		}
		return out
	}
	if got := writtenTrips(g); !slices.ContainsFunc(got, func(p roadnet.Path) bool { return slices.Equal(p, roadnet.Path{5, 6, 7}) }) {
		t.Fatalf("the materialized trips are not written: %v", got)
	}

	upgraded := g.CloneCOW()
	upgraded.AddPaths([]roadnet.Path{{4, 5, 6, 7, 8}}, Options{})
	if e := upgraded.FindEdge(1, 2); e.Kind != TEdge {
		t.Fatal("the ingest did not upgrade the B-edge")
	}
	for _, p := range writtenTrips(upgraded) {
		if slices.Equal(p, roadnet.Path{5, 6, 7}) || slices.Equal(p, roadnet.Path{7, 6, 5}) {
			t.Fatalf("a materialized trip the upgrade dropped is still written: %v", p)
		}
	}

	rebuilt := g.CloneCOW()
	e := rebuilt.EdgeForUpdate(b.ID)
	e.PathsFwd, e.PathsRev = nil, nil
	rebuilt.AddBEdgePaths([]BPath{{Edge: b.ID, From: 1, Path: roadnet.Path{4, 5, 6, 7}}})
	for x := rebuilt.trips; x != nil; x = x.prev {
		if x.first == materialized.first {
			t.Fatal("the rebuilt clone's table still links the batch its rebuild cleared")
		}
	}
	if g.trips != materialized || rebuilt.trips.prev == nil || rebuilt.trips.prev.first != 0 {
		t.Fatal("dropping the cleared batch moved the parent's table or lost the trajectories'")
	}
	if _, err := Decode(imageOf(rebuilt), g.Road); err != nil {
		t.Fatal(err)
	}
}
