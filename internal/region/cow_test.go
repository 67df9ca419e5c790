package region

import (
	"testing"

	"repro/internal/pref"
	"repro/internal/roadnet"
)

// observed captures every piece of graph state that AddPaths can touch,
// deep enough to detect in-place mutation through shared backing.
type observed struct {
	edges  int
	kinds  []EdgeKind
	prefs  []edgePref
	counts []int
	inner  []int
	tcs    []int
	adj    []int
}

// edgePref is an edge's preference state: what routing applies and the
// fit behind it.
type edgePref struct {
	applied pref.Preference
	has     bool
	fit     pref.Result
	fitted  bool
}

func observe(g *Graph) observed {
	var o observed
	o.edges = len(g.Edges)
	for _, e := range g.Edges {
		o.kinds = append(o.kinds, e.Kind)
		fit, fitted := e.Fit()
		o.prefs = append(o.prefs, edgePref{e.Pref, e.HasPref, fit, fitted})
		for _, pi := range e.PathsFwd {
			o.counts = append(o.counts, pi.Count)
		}
		for _, pi := range e.PathsRev {
			o.counts = append(o.counts, pi.Count)
		}
	}
	for r := 0; r < g.NumRegions(); r++ {
		n := 0
		for _, ip := range g.InnerPaths(r) {
			n += ip.Count
		}
		o.inner = append(o.inner, n)
		o.tcs = append(o.tcs, len(g.TransferCenters(r)))
		o.adj = append(o.adj, len(g.adj[r]))
	}
	return o
}

func (o observed) equal(p observed) bool {
	if o.edges != p.edges || len(o.kinds) != len(p.kinds) || len(o.counts) != len(p.counts) {
		return false
	}
	for i := range o.kinds {
		if o.kinds[i] != p.kinds[i] || o.prefs[i] != p.prefs[i] {
			return false
		}
	}
	for i := range o.counts {
		if o.counts[i] != p.counts[i] {
			return false
		}
	}
	for i := range o.inner {
		if o.inner[i] != p.inner[i] || o.tcs[i] != p.tcs[i] || o.adj[i] != p.adj[i] {
			return false
		}
	}
	return true
}

// TestCloneCOWIsolation is the COW analogue of TestCloneIsDeep: every
// mutation AddPaths can perform (counter bumps, path appends, B->T
// upgrades, new edges, transfer-center growth) must stay invisible from
// the parent.
func TestCloneCOWIsolation(t *testing.T) {
	g, _ := cloneWorld(t)
	before := observe(g)

	cp := g.CloneCOW()
	newPaths := []roadnet.Path{
		{0, 1, 2, 3, 4, 5}, // bumps existing counters
		{1, 2, 3, 4, 5},    // appends a distinct path
		{5, 4, 3, 2, 1},    // reverse direction
	}
	st := cp.AddPaths(newPaths, Options{})
	if len(st.TouchedEdges) == 0 {
		t.Fatal("update touched no edges; test is vacuous")
	}
	for _, id := range st.TouchedEdges { // simulate preference re-learning
		e := cp.EdgeForUpdate(id)
		e.SetFit(pref.Result{Preference: pref.Preference{Master: roadnet.DI}, Similarity: 0.5, PathsUsed: 3}, true)
		e.Pref, e.HasPref = pref.Preference{}, false
	}

	if after := observe(g); !after.equal(before) {
		t.Fatalf("parent state changed through COW clone:\nbefore %+v\nafter  %+v", before, after)
	}
	if cpState := observe(cp); cpState.equal(before) {
		t.Fatal("clone did not absorb the update")
	}
}

// TestCloneCOWPrivatizingKeepsState: privatizing is not writing. A
// clone that has copied every edge (EdgeForUpdate) without changing one
// still reads like its parent — kind, applied preference, fit, path
// counts — from edges that are no longer the parent's.
func TestCloneCOWPrivatizingKeepsState(t *testing.T) {
	g, _ := cloneWorld(t)
	cp := g.CloneCOW()
	for id := range cp.Edges {
		if cp.EdgeForUpdate(id) == g.Edges[id] {
			t.Fatalf("edge %d: EdgeForUpdate on a COW clone returned the parent's edge", id)
		}
	}
	if !observe(cp).equal(observe(g)) {
		t.Fatalf("privatized clone differs from parent:\nclone  %+v\nparent %+v", observe(cp), observe(g))
	}
}

// TestCloneCOWSiblingsIndependent checks that two clones of the same
// parent privatize independently: writes through one never surface in
// the other (the privatize-on-write copy must happen before any append
// can reuse shared backing capacity).
func TestCloneCOWSiblingsIndependent(t *testing.T) {
	g, _ := cloneWorld(t)
	a, b := g.CloneCOW(), g.CloneCOW()

	a.AddPaths([]roadnet.Path{{0, 1, 2, 3, 4, 5}, {1, 2, 3, 4, 5}}, Options{})
	bBefore := observe(b)
	if !bBefore.equal(observe(g)) {
		t.Fatal("untouched sibling diverged from parent")
	}
	b.AddPaths([]roadnet.Path{{5, 4, 3, 2, 1, 0}}, Options{})
	if got := observe(g); !got.equal(bBefore) {
		t.Fatal("parent changed after sibling updates")
	}
}

// TestCloneCOWChainedGenerations mirrors serving's use: each ingest
// clones the previous generation, applies a batch, and becomes the new
// head. Every retired generation must keep its exact state, and the
// final head must match a graph built by applying all batches to one
// deep clone.
func TestCloneCOWChainedGenerations(t *testing.T) {
	g, _ := cloneWorld(t)
	batches := [][]roadnet.Path{
		{{0, 1, 2, 3, 4, 5}},
		{{1, 2, 3, 4, 5}, {5, 4, 3, 2, 1}},
		{{0, 1, 2, 3}, {2, 3, 4, 5}},
	}

	ref := g.Clone()
	gens := []*Graph{g}
	snaps := []observed{observe(g)}
	head := g
	checkFindEdge(t, g)
	for _, batch := range batches {
		next := head.CloneCOW()
		next.AddPaths(batch, Options{})
		ref.AddPaths(batch, Options{})
		checkFindEdge(t, next)
		gens = append(gens, next)
		snaps = append(snaps, observe(next))
		head = next
	}
	for i, gen := range gens {
		if got := observe(gen); !got.equal(snaps[i]) {
			t.Fatalf("generation %d mutated after later generations advanced", i)
		}
		checkFindEdge(t, gen)
	}
	if !observe(head).equal(observe(ref)) {
		t.Fatalf("COW chain diverged from deep-clone reference:\ncow %+v\nref %+v", observe(head), observe(ref))
	}
}
