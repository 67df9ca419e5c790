package region

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
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
	regions := cluster.Cluster(tg)
	g := Build(road, regions, paths, Options{})
	g.ConnectBFS()
	return g
}

// imageOf returns g's image.
func imageOf(g *Graph) []byte {
	var e codec.Enc
	g.Append(&e)
	return e.B
}

func TestImageRoundTrip(t *testing.T) {
	g := snapWorld(t)
	img := imageOf(g)
	g2, err := Decode(img, g.Road)
	if err != nil {
		t.Fatal(err)
	}
	if again := imageOf(g2); !bytes.Equal(again, img) {
		t.Fatalf("the decoded graph's image is %d bytes, not the %d it was decoded from", len(again), len(img))
	}
	if g2.NumRegions() != g.NumRegions() {
		t.Fatalf("regions %d != %d", g2.NumRegions(), g.NumRegions())
	}
	if len(g2.Edges) != len(g.Edges) {
		t.Fatalf("edges %d != %d", len(g2.Edges), len(g.Edges))
	}
	if g2.TEdgeCount() != g.TEdgeCount() || g2.BEdgeCount() != g.BEdgeCount() {
		t.Fatal("edge kind counts differ after decoding")
	}
	// Derived indexes rebuilt correctly.
	for v := 0; v < g.Road.NumVertices(); v++ {
		if g2.RegionOf(roadnet.VertexID(v)) != g.RegionOf(roadnet.VertexID(v)) {
			t.Fatalf("RegionOf(%d) differs", v)
		}
	}
	for r := 0; r < g.NumRegions(); r++ {
		if !slices.Equal(g2.Links(r), g.Links(r)) {
			t.Fatalf("adjacency of region %d differs", r)
		}
		if g2.Centroid(r) != g.Centroid(r) {
			t.Fatalf("centroid of region %d differs", r)
		}
		if len(g2.InnerPaths(r)) != len(g.InnerPaths(r)) {
			t.Fatalf("inner paths of region %d differ", r)
		}
		if !slices.Equal(g.TransferCenters(r), g2.TransferCenters(r)) {
			t.Fatalf("transfer centers of region %d differ", r)
		}
	}
	// FindEdge lookups still work.
	for _, e := range g.Edges {
		if got := g2.FindEdge(int(e.R1), int(e.R2)); got == nil || got.ID != e.ID {
			t.Fatalf("FindEdge(%d,%d) broken after decoding", e.R1, e.R2)
		}
	}
	checkFindEdge(t, g)
	checkFindEdge(t, g2)
}

// TestImageOmitsFit: an edge's fit is process state that artifacts keep
// in their own preference section, so a graph's image is the same bytes
// with or without fits, and a decoded image yields edges without one.
func TestImageOmitsFit(t *testing.T) {
	g := snapWorld(t)
	bare := imageOf(g)
	for _, e := range g.Edges {
		e.SetFit(pref.Result{Preference: pref.Preference{Master: roadnet.DI, Slave: pref.Highways}, Similarity: 0.8125, PathsUsed: 7}, true)
	}
	fitted := imageOf(g)
	if !bytes.Equal(fitted, bare) {
		t.Fatalf("the image changed from %d to %d bytes once edges carried fits", len(bare), len(fitted))
	}
	g2, err := Decode(fitted, g.Road)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g2.Edges {
		if _, ok := e.Fit(); ok {
			t.Fatalf("edge %d came back from the image with a fit", e.ID)
		}
	}
}

// TestDecodeRefusesMissingVisitCounts: every region graph carries its
// transfer-center visit counts, so an image whose counts flag is not
// exactly 1 — 0 was what a graph without counts wrote — is refused with
// codec.ErrMalformed. With every region's counts empty the image ends in
// the flag, one empty list per region and the 8-byte trailer, so the
// flag byte sits at a known offset.
func TestDecodeRefusesMissingVisitCounts(t *testing.T) {
	g := snapWorld(t)
	for r := range g.tcCounts {
		g.tcCounts[r] = nil
	}
	img := imageOf(g)
	flag := len(img) - 8 - g.NumRegions() - 1
	if img[flag] != 1 || !bytes.Equal(img[flag+1:len(img)-8], make([]byte, g.NumRegions())) {
		t.Fatal("the image does not end in the counts flag and one empty list per region")
	}
	if _, err := Decode(img, g.Road); err != nil {
		t.Fatalf("the image with flag 1: %v", err)
	}
	head, trailer := img[:flag], img[len(img)-8:]
	for name, bad := range map[string][]byte{
		"flag 0, no counts":   slices.Concat(head, []byte{0}, trailer),
		"flag 2, with counts": slices.Concat(head, []byte{2}, make([]byte, g.NumRegions()), trailer),
	} {
		if got, err := Decode(bad, g.Road); !errors.Is(err, codec.ErrMalformed) || got != nil {
			t.Errorf("%s: Decode returned graph %v, err %v; want ErrMalformed", name, got != nil, err)
		}
	}
}

// TestDecodeRejectsBadImages: an image is outside input — artifacts are
// hot-reloaded from a directory — so an ID anywhere in one that names
// nothing is refused with codec.ErrMalformed, not a graph that panics
// at query time.
// Each case edits a decoded graph and decodes its image again: vertices
// out of the road in every list, road types and preferences out of
// range (a slave no pipeline emits too), edge pairs that are not
// 0 ≤ R1 < R2 < regions, two edges joining the same regions, and a
// region's counted vertices out of order. A visit count is an int32, so
// one above MaxInt32 is refused too: that case patches the image's
// bytes, since no graph holds such a count.
func TestDecodeRejectsBadImages(t *testing.T) {
	g := snapWorld(t)
	img := imageOf(g)
	n, regions := g.Road.NumVertices(), g.NumRegions()
	bad := roadnet.VertexID(n)
	if len(g.Edges) < 2 {
		t.Fatal("the world has fewer than two region edges")
	}
	withPaths := func(g *Graph) *Edge {
		for _, e := range g.Edges {
			if len(e.PathsFwd) > 0 {
				return e
			}
		}
		t.Fatal("no edge stores a path")
		return nil
	}
	innerRegion := func(g *Graph) int {
		for r, ips := range g.inner {
			if len(ips) > 0 {
				return r
			}
		}
		t.Fatal("no region stores an inner path")
		return 0
	}
	countedTwice := func(g *Graph) int {
		for r, cs := range g.tcCounts {
			if len(cs) > 1 {
				return r
			}
		}
		t.Fatal("no region counts two vertices")
		return 0
	}
	for name, edit := range map[string]func(g *Graph){
		"stored path vertex": func(g *Graph) {
			p := withPaths(g).PathsFwd[0].Path
			p[len(p)-1] = bad
		},
		"negative stored path vertex": func(g *Graph) { withPaths(g).PathsFwd[0].Path[0] = -1 },
		"inner path vertex": func(g *Graph) {
			p := g.inner[innerRegion(g)][0].Path
			p[len(p)-1] = bad
		},
		"transfer center": func(g *Graph) {
			r := innerRegion(g)
			g.transferCenters[r] = append(g.transferCenters[r], bad)
		},
		"transfer-center count": func(g *Graph) { g.tcCounts[innerRegion(g)] = append(g.tcCounts[innerRegion(g)], visitCount{bad, 3}) },
		"region member":         func(g *Graph) { g.Regions[0].Members = append(g.Regions[0].Members, bad) },
		"region road type":      func(g *Graph) { g.Regions[0].RoadType = roadnet.NumRoadTypes },
		"top road type":         func(g *Graph) { g.topTypes[0] = append(g.topTypes[0], roadnet.NumRoadTypes) },
		"edge preference": func(g *Graph) {
			g.Edges[0].HasPref, g.Edges[0].Pref = true, pref.Preference{Master: roadnet.NumCostWeights}
		},
		"unproducible slave": func(g *Graph) {
			g.Edges[0].HasPref, g.Edges[0].Pref = true, pref.Preference{Master: roadnet.DI, Slave: pref.SlaveOf(roadnet.Motorway, roadnet.Residential)}
		},
		"edge endpoint":     func(g *Graph) { g.Edges[0].R2 = int32(regions) },
		"far edge endpoint": func(g *Graph) { g.Edges[0].R1 = 10_000 },
		"negative endpoint": func(g *Graph) { g.Edges[0].R1 = -1 },
		"R1 == R2":          func(g *Graph) { g.Edges[0].R2 = g.Edges[0].R1 },
		"R1 > R2":           func(g *Graph) { g.Edges[0].R1, g.Edges[0].R2 = g.Edges[0].R2, g.Edges[0].R1 },
		"repeated pair":     func(g *Graph) { g.Edges[1].R1, g.Edges[1].R2 = g.Edges[0].R1, g.Edges[0].R2 },
		"counted vertices out of order": func(g *Graph) {
			cs := g.tcCounts[countedTwice(g)]
			cs[0].v, cs[1].v = cs[1].v, cs[0].v
		},
	} {
		fresh, err := Decode(img, g.Road)
		if err != nil {
			t.Fatal(err)
		}
		edit(fresh)
		if got, err := Decode(imageOf(fresh), g.Road); !errors.Is(err, codec.ErrMalformed) || got != nil {
			t.Errorf("%s: Decode returned graph %v, err %v; want ErrMalformed", name, got != nil, err)
		}
	}

	// A count of MaxInt32 decodes. Its zigzag varint, fe ff ff ff 0f,
	// becomes MaxInt32+1's, 80 80 80 80 10: the same length, so the
	// image stays whole.
	fresh, err := Decode(img, g.Road)
	if err != nil {
		t.Fatal(err)
	}
	fresh.tcCounts[countedTwice(fresh)][0].c = math.MaxInt32
	top := imageOf(fresh)
	if _, err := Decode(top, g.Road); err != nil {
		t.Fatalf("a visit count of MaxInt32: %v", err)
	}
	at, huge := []byte{0xfe, 0xff, 0xff, 0xff, 0x0f}, []byte{0x80, 0x80, 0x80, 0x80, 0x10}
	if bytes.Count(top, at) != 1 {
		t.Fatalf("the image holds %d varints of MaxInt32, want the one count", bytes.Count(top, at))
	}
	if got, err := Decode(bytes.Replace(top, at, huge, 1), g.Road); !errors.Is(err, codec.ErrMalformed) || got != nil {
		t.Errorf("visit count above MaxInt32: Decode returned graph %v, err %v; want ErrMalformed", got != nil, err)
	}
}

// TestDecodeBoundsWindows: a stored path is a window of a decoded trip,
// so Decode refuses, with codec.ErrMalformed, a window naming a trip
// the image does not hold or reaching past its trip's end, and a trip
// longer than the vertices the trailer declares. The image is built by
// hand: two regions of the line world, one trip 2→3→4, and one edge
// whose forward path is the window given.
func TestDecodeBoundsWindows(t *testing.T) {
	road, _ := lineWorld(t)
	heads := newOutHeads(road)
	step := func(u, v roadnet.VertexID) byte {
		return byte(slices.Index(heads.heads[int(u)*heads.w:int(u+1)*heads.w], v))
	}
	image := func(trip int, off, n uint64, vertices uint32) []byte {
		var e codec.Enc
		e.Uvarint(2)
		first := 0
		for _, members := range [][]int{{0, 1, 2}, {4, 5}} {
			e.Uvarint(uint64(len(members)))
			e.Int(members[0] - first)
			first = members[0]
			for i := 1; i < len(members); i++ {
				e.Int(members[i] - members[i-1])
			}
			e.Byte(byte(roadnet.Secondary))
			e.Float64(1)
			e.Float64(0)
			e.Float64(0)
		}
		e.Uvarint(1) // one trip: 2 → 3 → 4
		e.Uvarint(3)
		e.Int(2 - first)
		e.Byte(step(2, 3) | step(3, 4)<<4)
		e.Uvarint(1) // one edge, 0-1, a T-edge without a preference
		e.Int(0)
		e.Int(1)
		e.Byte(0)
		e.Byte(0)
		e.Uvarint(1)
		e.Int(1)
		e.Int(1)
		e.Int(trip) // the first window: a delta from 0
		e.Uvarint(off)
		e.Uvarint(n)
		e.Uvarint(0)
		for range 2 { // no inner paths, transfer centers or top road types
			e.Uvarint(0)
			e.Uvarint(0)
			e.Uvarint(0)
		}
		e.Byte(1)
		e.Uvarint(0)
		e.Uvarint(0)
		e.B = binary.BigEndian.AppendUint32(e.B, vertices)
		return binary.BigEndian.AppendUint32(e.B, 1)
	}
	g, err := Decode(image(0, 0, 3, 8), road)
	if err != nil {
		t.Fatalf("the well-formed image: %v", err)
	}
	if p := g.Edges[0].PathsFwd[0].Path; !slices.Equal(p, roadnet.Path{2, 3, 4}) || cap(p) != 3 {
		t.Fatalf("the window decoded as %v (capacity %d), want [2 3 4] capped", p, cap(p))
	}
	for name, bad := range map[string][]byte{
		"a trip not in the image":       image(1, 0, 2, 8),
		"a trip before the first":       image(-1, 0, 2, 8),
		"a window past its trip's end":  image(0, 2, 2, 8),
		"an offset past its trip's end": image(0, 4, 0, 8),
		"a window of 2^63 vertices":     image(0, 1, 1<<63, 8),
		"a trip past the trailer's sum": image(0, 0, 3, 7),
	} {
		if got, err := Decode(bad, road); !errors.Is(err, codec.ErrMalformed) || got != nil {
			t.Errorf("%s: Decode returned graph %v, err %v; want ErrMalformed", name, got != nil, err)
		}
	}
}
