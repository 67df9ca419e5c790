package region

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/pref"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// snapWorld builds a region graph from a simulated world.
func snapWorld(t *testing.T) *Graph {
	t.Helper()
	road := roadnet.Generate(roadnet.Tiny(13))
	sim := traj.NewSimulator(road, traj.D2Like(13, 300))
	ts := sim.Run()
	paths := make([]roadnet.Path, 0, len(ts))
	for _, tr := range ts {
		paths = append(paths, tr.Truth)
	}
	tg := cluster.BuildTrajectoryGraph(road, paths)
	regions := cluster.Cluster(tg, cluster.Options{})
	g := Build(road, regions, paths, Options{})
	g.ConnectBFS()
	return g
}

func TestSnapshotRestoreEquivalence(t *testing.T) {
	g := snapWorld(t)
	s := g.Snapshot()
	g2, err := Restore(g.Road, s)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumRegions() != g.NumRegions() {
		t.Fatalf("regions %d != %d", g2.NumRegions(), g.NumRegions())
	}
	if len(g2.Edges) != len(g.Edges) {
		t.Fatalf("edges %d != %d", len(g2.Edges), len(g.Edges))
	}
	if g2.TEdgeCount() != g.TEdgeCount() || g2.BEdgeCount() != g.BEdgeCount() {
		t.Fatal("edge kind counts differ after restore")
	}
	// Derived indexes rebuilt correctly.
	for v := 0; v < g.Road.NumVertices(); v++ {
		if g2.RegionOf(roadnet.VertexID(v)) != g.RegionOf(roadnet.VertexID(v)) {
			t.Fatalf("RegionOf(%d) differs", v)
		}
	}
	for r := 0; r < g.NumRegions(); r++ {
		if len(g2.Links(r)) != len(g.Links(r)) {
			t.Fatalf("adjacency of region %d differs", r)
		}
		if g2.Centroid(r) != g.Centroid(r) {
			t.Fatalf("centroid of region %d differs", r)
		}
		if len(g2.InnerPaths(r)) != len(g.InnerPaths(r)) {
			t.Fatalf("inner paths of region %d differ", r)
		}
		a, b := g.TransferCenters(r), g2.TransferCenters(r)
		if len(a) != len(b) {
			t.Fatalf("transfer centers of region %d differ", r)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("transfer centers of region %d differ at %d", r, i)
			}
		}
	}
	// FindEdge lookups still work.
	for _, e := range g.Edges {
		if got := g2.FindEdge(e.R1, e.R2); got == nil || got.ID != e.ID {
			t.Fatalf("FindEdge(%d,%d) broken after restore", e.R1, e.R2)
		}
	}
	checkFindEdge(t, g)
	checkFindEdge(t, g2)
}

// TestSnapshotImageOmitsFit: an edge's fit is process state that
// artifacts keep in their own preference section, so a snapshot's flat
// image is the same bytes with or without fits, and restoring a decoded
// image yields edges without one.
func TestSnapshotImageOmitsFit(t *testing.T) {
	g := snapWorld(t)
	encode := func() []byte {
		var e codec.Enc
		g.Snapshot().Append(&e, g.Road)
		return e.B
	}
	bare := encode()
	for _, e := range g.Edges {
		e.SetFit(pref.Result{Preference: pref.Preference{Master: roadnet.DI, Slave: pref.Highways}, Similarity: 0.8125, PathsUsed: 7}, true)
	}
	fitted := encode()
	if !bytes.Equal(fitted, bare) {
		t.Fatalf("snapshot image changed from %d to %d bytes once edges carried fits", len(bare), len(fitted))
	}
	s, err := DecodeSnapshot(fitted, g.Road)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Restore(g.Road, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g2.Edges {
		if _, ok := e.Fit(); ok {
			t.Fatalf("edge %d came back from the image with a fit", e.ID)
		}
	}
}

// TestDecodeSnapshotRefusesMissingVisitCounts: every region graph
// carries its transfer-center visit counts, so an image whose counts
// flag is not exactly 1 — 0 was what a graph without counts wrote — is
// refused with codec.ErrMalformed. With every region's counts empty the
// image ends in the flag, one empty list per region and the 8-byte
// trailer, so the flag byte sits at a known offset.
func TestDecodeSnapshotRefusesMissingVisitCounts(t *testing.T) {
	g := snapWorld(t)
	s := g.Snapshot()
	s.TCCounts = make([]map[roadnet.VertexID]int, g.NumRegions())
	for r := range s.TCCounts {
		s.TCCounts[r] = map[roadnet.VertexID]int{}
	}
	var e codec.Enc
	s.Append(&e, g.Road)
	img := e.B
	flag := len(img) - 8 - g.NumRegions() - 1
	if img[flag] != 1 || !bytes.Equal(img[flag+1:len(img)-8], make([]byte, g.NumRegions())) {
		t.Fatal("the image does not end in the counts flag and one empty list per region")
	}
	if _, err := DecodeSnapshot(img, g.Road); err != nil {
		t.Fatalf("the image with flag 1: %v", err)
	}
	head, trailer := img[:flag], img[len(img)-8:]
	for name, bad := range map[string][]byte{
		"flag 0, no counts":   slices.Concat(head, []byte{0}, trailer),
		"flag 2, with counts": slices.Concat(head, []byte{2}, make([]byte, g.NumRegions()), trailer),
	} {
		if got, err := DecodeSnapshot(bad, g.Road); !errors.Is(err, codec.ErrMalformed) || got != nil {
			t.Errorf("%s: DecodeSnapshot returned snapshot %v, err %v; want ErrMalformed", name, got != nil, err)
		}
	}
}

func TestRestoreRejectsBadSnapshots(t *testing.T) {
	g := snapWorld(t)

	s := g.Snapshot()
	s.Centroids = s.Centroids[:len(s.Centroids)-1]
	if _, err := Restore(g.Road, s); err == nil {
		t.Fatal("centroid count mismatch accepted")
	}

	s = g.Snapshot()
	if len(s.Edges) > 0 {
		s.Edges[0].R1 = 10_000
		if _, err := Restore(g.Road, s); err == nil {
			t.Fatal("out-of-range edge endpoint accepted")
		}
	}

	// FindEdge searches sorted, duplicate-free adjacency lists, so an
	// edge's pair must be R1 < R2 and belong to no other edge.
	if len(g.Edges) < 2 {
		t.Fatal("the world has fewer than two region edges")
	}
	for name, edit := range map[string]func(e []Edge){
		"R1 == R2":      func(e []Edge) { e[0].R2 = e[0].R1 },
		"R1 > R2":       func(e []Edge) { e[0].R1, e[0].R2 = e[0].R2, e[0].R1 },
		"repeated pair": func(e []Edge) { e[1].R1, e[1].R2 = e[0].R1, e[0].R2 },
	} {
		s = g.Snapshot()
		edit(s.Edges)
		if _, err := Restore(g.Road, s); err == nil {
			t.Fatalf("edge pair %s accepted", name)
		}
	}

	s = g.Snapshot()
	if len(s.Regions) > 0 {
		bad := s.Regions[0]
		bad.Members = append([]roadnet.VertexID(nil), roadnet.VertexID(1_000_000))
		s.Regions = append([]cluster.Region(nil), s.Regions...)
		s.Regions[0] = bad
		if _, err := Restore(g.Road, s); err == nil {
			t.Fatal("out-of-range member accepted")
		}
	}
}

func TestRestoreNormalizesMissingOptionalSlices(t *testing.T) {
	g := snapWorld(t)
	s := g.Snapshot()
	s.Inner = nil
	s.TransferCenters = nil
	s.TCCounts = nil
	s.TopTypes = nil
	g2, err := Restore(g.Road, s)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < g2.NumRegions(); r++ {
		_ = g2.InnerPaths(r)
		_ = g2.TransferCenters(r)
		_ = g2.TopRoadTypes(r)
	}
	// A restored graph counts visits from empty maps, on itself and on a
	// COW clone.
	var path roadnet.Path
	for _, e := range g.Edges {
		if len(e.PathsFwd) > 0 {
			path = e.PathsFwd[0].Path
			break
		}
	}
	g2.CloneCOW().AddPaths([]roadnet.Path{path}, Options{})
	if st := g2.AddPaths([]roadnet.Path{path}, Options{}); st.Paths != 1 || len(g2.TransferCenters(g2.RegionOf(path[0]))) == 0 {
		t.Fatalf("AddPaths on a graph restored without counts: %+v", st)
	}
}
