package region

import (
	"cmp"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"

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
			o.counts = append(o.counts, int(pi.Count))
		}
		for _, pi := range e.PathsRev {
			o.counts = append(o.counts, int(pi.Count))
		}
	}
	for r := 0; r < g.NumRegions(); r++ {
		n := 0
		for _, ip := range g.InnerPaths(r) {
			n += int(ip.Count)
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

// TestVisitCountsMatchMapReference holds the visit counts, sorted
// pairs, to a map per region. Random bumps go first into a decoded
// graph in place (its pairs are capped windows of one array), then
// into a chain of CloneCOW generations. After each round every region's
// pairs ascend by vertex and hold exactly the reference's counts, every
// bumped region's transfer centers are the reference's most visited
// (count descending, vertex ascending, at most maxTransferCenters), and
// the parent's pairs and transfer-center lists are what they were
// before the child was bumped.
func TestVisitCountsMatchMapReference(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	built := snapWorld(t)
	g, err := Decode(imageOf(built), built.Road)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]map[roadnet.VertexID]int, g.NumRegions())
	for r := range ref {
		_, ref[r] = g.TransferCounts(r)
	}

	check := func(gen int, g *Graph, dirty map[int]bool) {
		t.Helper()
		for r, m := range ref {
			cs := g.tcCounts[r]
			if !slices.IsSortedFunc(cs, func(x, y visitCount) int { return cmp.Compare(x.v, y.v) }) || len(cs) != len(m) {
				t.Fatalf("generation %d, region %d: pairs %v, want the counts %v in vertex order", gen, r, cs, m)
			}
			for _, x := range cs {
				if c, ok := m[x.v]; !ok || c != int(x.c) {
					t.Fatalf("generation %d, region %d: vertex %d counted %d, want %d", gen, r, x.v, x.c, c)
				}
			}
			if !dirty[r] {
				continue
			}
			want := slices.SortedFunc(maps.Keys(m), func(u, v roadnet.VertexID) int {
				return cmp.Or(cmp.Compare(m[v], m[u]), cmp.Compare(u, v))
			})
			want = want[:min(len(want), maxTransferCenters)]
			if got, _ := g.TransferCounts(r); !slices.Equal(got, want) {
				t.Fatalf("generation %d, region %d: transfer centers %v, want %v", gen, r, got, want)
			}
		}
	}
	bump := func(g *Graph) map[int]bool {
		dirty := make(map[int]bool)
		for range 300 {
			r := rng.Intn(g.NumRegions())
			v := roadnet.VertexID(rng.Intn(g.Road.NumVertices()))
			if counted := g.tcCounts[r]; len(counted) > 0 && rng.Intn(2) == 0 {
				v = counted[rng.Intn(len(counted))].v
			}
			g.bumpTransferCenter(r, v, dirty)
			ref[r][v]++
		}
		for r := range dirty {
			g.rebuildTransferCenters(r)
		}
		return dirty
	}

	check(0, g, bump(g))
	for gen := 1; gen <= 6; gen++ {
		counts := make([][]visitCount, len(g.tcCounts))
		for r, cs := range g.tcCounts {
			counts[r] = slices.Clone(cs)
		}
		centers := slices.Clone(g.transferCenters)
		for r, tc := range centers {
			centers[r] = slices.Clone(tc)
		}
		next := g.CloneCOW()
		check(gen, next, bump(next))
		for r := range counts {
			if !slices.Equal(g.tcCounts[r], counts[r]) || !slices.Equal(g.transferCenters[r], centers[r]) {
				t.Fatalf("generation %d bumped region %d's counts or transfer centers in its parent", gen, r)
			}
		}
		g = next
	}
}

// TestMutEdgeOneBlock: a COW clone privatizes an edge's two path lists
// into one block, two capped windows. The parent's lists stay as they
// were, entry for entry, and an append to either window of the clone
// reallocates it, leaving the other window's entries unchanged.
func TestMutEdgeOneBlock(t *testing.T) {
	g, _ := cloneWorld(t)
	id := slices.IndexFunc(g.Edges, func(e *Edge) bool { return len(e.PathsFwd) > 0 && len(e.PathsRev) > 0 })
	if id < 0 {
		t.Fatal("no edge carries paths both ways; test is vacuous")
	}
	parent := g.Edges[id]
	fwd, rev := slices.Clone(parent.PathsFwd), slices.Clone(parent.PathsRev)
	for side, from := range []int32{parent.R1, parent.R2} {
		cp := g.CloneCOW()
		e := cp.mutEdge(id)
		if e == parent || &e.PathsFwd[0] == &parent.PathsFwd[0] || &e.PathsRev[0] == &parent.PathsRev[0] {
			t.Fatal("privatized edge shares its lists with the parent")
		}
		end := unsafe.Add(unsafe.Pointer(&e.PathsFwd[0]), uintptr(len(fwd))*unsafe.Sizeof(PathInfo{}))
		if cap(e.PathsFwd) != len(fwd) || end != unsafe.Pointer(&e.PathsRev[0]) {
			t.Fatalf("lists are not two capped windows of one block (fwd len %d cap %d)", len(e.PathsFwd), cap(e.PathsFwd))
		}
		if !slices.EqualFunc(e.PathsFwd, fwd, samePathInfo) || !slices.EqualFunc(e.PathsRev, rev, samePathInfo) {
			t.Fatal("privatized lists differ from the parent's")
		}
		keep := slices.Clone(e.PathsRev)
		if side == 1 {
			keep = slices.Clone(e.PathsFwd)
		}
		e.addPath(int(from), roadnet.Path{9, 8, 7}, false, 0, 0)
		other := e.PathsRev
		if side == 1 {
			other = e.PathsFwd
		}
		if !slices.EqualFunc(other, keep, samePathInfo) {
			t.Fatalf("append to side %d changed the other side's entries", side)
		}
		if !slices.EqualFunc(parent.PathsFwd, fwd, samePathInfo) || !slices.EqualFunc(parent.PathsRev, rev, samePathInfo) {
			t.Fatal("privatizing and appending changed the parent's lists")
		}
	}
}

func samePathInfo(a, b PathInfo) bool {
	return slices.Equal(a.Path, b.Path) && a.Count == b.Count && a.Terminal == b.Terminal && a.trip == b.trip && a.off == b.off
}
