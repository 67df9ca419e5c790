package core

import (
	"encoding/binary"
	"maps"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/geo"
	"repro/internal/pref"
	"repro/internal/region"
	"repro/internal/roadnet"
)

// artifactVersionV4 is the version of the artifact Save wrote before
// v5: today's sections, the region section writing every stored path as
// a walk of its own.
const artifactVersionV4 uint16 = 4

// handBuiltV4 is the v4 writer Save was before artifact v5, kept as the
// reference v5 is held to: art's parts with the region section
// rewritten by regionSectionV4 from the graph the v5 section decodes to.
func handBuiltV4(t testing.TB, art []byte) []byte {
	t.Helper()
	parts := artifactParts(t, art)
	road, err := roadnet.Decode(parts[partRoad])
	if err != nil {
		t.Fatal(err)
	}
	g, err := region.Decode(parts[partRegion], road)
	if err != nil {
		t.Fatal(err)
	}
	parts[partRegion] = regionSectionV4(g)
	return frameParts(t, artifactVersionV4, parts)
}

// loadV4 is the v4 reader Load was before it read v5 only, as far as
// v5 changed it: the region section of a v4 artifact, decoded into the
// graph's gob image (Snapshot).
func loadV4(t testing.TB, art []byte) *Snapshot {
	t.Helper()
	parts := artifactParts(t, art)
	road, err := roadnet.Decode(parts[partRoad])
	if err != nil {
		t.Fatal(err)
	}
	s, err := decodeRegionV4(parts[partRegion], road)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// regionV4 is the v4 region image's list coding: a vertex list is its
// length and first vertex, a delta from the last list's first; a set
// continues in deltas, a path in one nibble per step naming which of
// the vertex's first fifteen out-edges it takes (two to a byte; 15
// escapes), then the escaped steps' vertices.
type regionV4 struct {
	road  *roadnet.Graph
	e     codec.Enc
	d     *codec.Dec
	first roadnet.VertexID
	// the trailer's totals
	vertices, infos int
}

// head returns the head of u's k-th out-edge among its first fifteen,
// or -1.
func (c *regionV4) head(u roadnet.VertexID, k int) roadnet.VertexID {
	if out := c.road.Out(u); k < min(len(out), 15) {
		return c.road.Edge(out[k]).To
	}
	return -1
}

func (c *regionV4) writeList(p []roadnet.VertexID, path bool) {
	c.e.Uvarint(uint64(len(p)))
	if len(p) == 0 {
		return
	}
	c.vertices += len(p)
	c.e.Int(int(p[0]) - int(c.first))
	c.first = p[0]
	if !path {
		for i := 1; i < len(p); i++ {
			c.e.Int(int(p[i]) - int(p[i-1]))
		}
		return
	}
	var escaped []roadnet.VertexID
	var b byte
	for i := 1; i < len(p); i++ {
		k := byte(15)
		for j := 0; j < 15; j++ {
			if c.head(p[i-1], j) == p[i] {
				k = byte(j)
				break
			}
		}
		if k == 15 {
			escaped = append(escaped, p[i])
		}
		if b |= k << (4 * ((i - 1) % 2)); i%2 == 0 || i == len(p)-1 {
			c.e.Byte(b)
			b = 0
		}
	}
	for _, v := range escaped {
		c.e.Uvarint(uint64(uint32(v)))
	}
}

func (c *regionV4) readList(path bool) []roadnet.VertexID {
	n := int(c.d.Uvarint())
	if n == 0 || c.d.Err() != nil {
		return nil
	}
	l := make([]roadnet.VertexID, n)
	l[0] = c.first + roadnet.VertexID(c.d.Int())
	c.first = l[0]
	if !path {
		for i := 1; i < n; i++ {
			l[i] = l[i-1] + roadnet.VertexID(c.d.Int())
		}
		return l
	}
	nibbles := c.d.Bytes(n / 2)
	for i := 1; i < n && c.d.Err() == nil; i++ {
		if k := nibbles[(i-1)/2] >> (4 * ((i - 1) % 2)) & 0xF; k == 15 {
			l[i] = roadnet.VertexID(c.d.Uvarint())
		} else {
			l[i] = c.head(l[i-1], int(k))
		}
	}
	return l
}

// regionSectionV4 writes g's image as the v4 artifact's region section.
func regionSectionV4(g *region.Graph) []byte {
	c := &regionV4{road: g.Road}
	c.e.Uvarint(uint64(len(g.Regions)))
	for i, r := range g.Regions {
		c.writeList(r.Members, false)
		c.e.Byte(byte(r.RoadType))
		c.e.Float64(r.Popularity)
		c.e.Float64(g.Centroid(i).X)
		c.e.Float64(g.Centroid(i).Y)
	}
	c.e.Uvarint(uint64(len(g.Edges)))
	for _, e := range g.Edges {
		c.e.Int(e.R1)
		c.e.Int(e.R2)
		flags := byte(e.Kind) | byte(e.Pref.Master)<<2
		if e.HasPref {
			flags |= 2
		}
		c.e.Byte(flags)
		c.e.Byte(byte(e.Pref.Slave))
		for _, set := range [][]region.PathInfo{e.PathsFwd, e.PathsRev} {
			c.e.Uvarint(uint64(len(set)))
			c.infos += len(set)
			for _, pi := range set {
				c.e.Int(int(pi.Count))
				c.e.Int(int(pi.Terminal))
				c.writeList(pi.Path, true)
			}
		}
	}
	for r := range g.NumRegions() {
		c.e.Uvarint(uint64(len(g.InnerPaths(r))))
		for _, ip := range g.InnerPaths(r) {
			c.e.Int(int(ip.Count))
			c.e.Int(int(ip.Terminal))
			c.writeList(ip.Path, true)
		}
		centers, _ := g.TransferCounts(r)
		c.writeList(centers, false)
		c.e.Uvarint(uint64(len(g.TopRoadTypes(r))))
		for _, rt := range g.TopRoadTypes(r) {
			c.e.Byte(byte(rt))
		}
	}
	c.e.Byte(1)
	for r := range g.NumRegions() {
		_, counts := g.TransferCounts(r)
		vs := slices.Sorted(maps.Keys(counts))
		c.writeList(vs, false)
		for _, v := range vs {
			c.e.Int(counts[v])
		}
	}
	c.e.B = binary.BigEndian.AppendUint32(c.e.B, uint32(c.vertices))
	return binary.BigEndian.AppendUint32(c.e.B, uint32(c.infos))
}

// decodeRegionV4 reads a v4 region section written by regionSectionV4.
// It is a reference for well-formed sections: it checks no ID.
func decodeRegionV4(b []byte, road *roadnet.Graph) (*Snapshot, error) {
	c := &regionV4{road: road, d: codec.NewDec(b[:len(b)-8])}
	s := &Snapshot{Regions: make([]cluster.Region, c.d.Count(5))}
	for i := range s.Regions {
		r := &s.Regions[i]
		r.ID, r.Members, r.RoadType, r.Popularity = i, c.readList(false), roadnet.RoadType(c.d.Byte()), c.d.Float64()
		s.Centroids = append(s.Centroids, geo.Point{X: c.d.Float64(), Y: c.d.Float64()})
	}
	s.Edges = make([]region.Edge, c.d.Count(6))
	for i := range s.Edges {
		e := &s.Edges[i]
		e.ID, e.R1, e.R2 = i, c.d.Int(), c.d.Int()
		flags := c.d.Byte()
		e.Kind, e.HasPref, e.Pref.Master = region.EdgeKind(flags&1), flags&2 != 0, roadnet.Weight(flags>>2)
		e.Pref.Slave = pref.SlaveFeature(c.d.Byte())
		for _, set := range []*[]region.PathInfo{&e.PathsFwd, &e.PathsRev} {
			for n := c.d.Count(3); n > 0; n-- {
				*set = append(*set, region.PathInfo{Count: int32(c.d.Int()), Terminal: int32(c.d.Int()), Path: c.readList(true)})
			}
		}
	}
	for range s.Regions {
		var inner []region.InnerPath
		for n := c.d.Count(3); n > 0; n-- {
			inner = append(inner, region.InnerPath{Count: int32(c.d.Int()), Terminal: int32(c.d.Int()), Path: c.readList(true)})
		}
		s.Inner = append(s.Inner, inner)
		s.TransferCenters = append(s.TransferCenters, c.readList(false))
		var top []roadnet.RoadType
		for n := c.d.Count(1); n > 0; n-- {
			top = append(top, roadnet.RoadType(c.d.Byte()))
		}
		s.TopTypes = append(s.TopTypes, top)
	}
	if c.d.Byte() != 1 {
		c.d.Fail("no visit counts")
	}
	for range s.Regions {
		counts := map[roadnet.VertexID]int{}
		for _, v := range c.readList(false) {
			counts[v] = c.d.Int()
		}
		s.TCCounts = append(s.TCCounts, counts)
	}
	return s, c.d.Done()
}

// requireSameGraph fails unless g holds what the v4 reference decoded:
// the regions and their centroids, and edge by edge each edge's pair,
// kind, preference and both path sets — contents, counts and terminal
// counts in order — then per region the inner paths, transfer centers,
// visit counts and top road types.
func requireSameGraph(t *testing.T, what string, want *Snapshot, g *region.Graph) {
	t.Helper()
	samePaths := func(a []region.PathInfo, b []region.PathInfo) bool {
		return slices.EqualFunc(a, b, func(x, y region.PathInfo) bool {
			return slices.Equal(x.Path, y.Path) && x.Count == y.Count && x.Terminal == y.Terminal
		})
	}
	if len(want.Regions) != g.NumRegions() || len(want.Edges) != len(g.Edges) {
		t.Fatalf("%s: %d regions and %d edges, the v4 reference %d and %d", what, g.NumRegions(), len(g.Edges), len(want.Regions), len(want.Edges))
	}
	for i, w := range want.Edges {
		e := g.Edges[i]
		if e.R1 != w.R1 || e.R2 != w.R2 || e.Kind != w.Kind || e.HasPref != w.HasPref || e.Pref != w.Pref {
			t.Fatalf("%s: edge %d is %d-%d %v %v %+v, the v4 reference's %d-%d %v %v %+v", what, i, e.R1, e.R2, e.Kind, e.HasPref, e.Pref, w.R1, w.R2, w.Kind, w.HasPref, w.Pref)
		}
		if !samePaths(e.PathsFwd, w.PathsFwd) || !samePaths(e.PathsRev, w.PathsRev) {
			t.Fatalf("%s: edge %d's stored paths differ from the v4 reference's", what, i)
		}
	}
	for r, w := range want.Regions {
		got := g.Regions[r]
		centers, counts := g.TransferCounts(r)
		switch {
		case got.RoadType != w.RoadType || got.Popularity != w.Popularity || !slices.Equal(got.Members, w.Members) || g.Centroid(r) != want.Centroids[r]:
			t.Fatalf("%s: region %d differs from the v4 reference's", what, r)
		case !slices.EqualFunc(g.InnerPaths(r), want.Inner[r], func(x, y region.InnerPath) bool {
			return slices.Equal(x.Path, y.Path) && x.Count == y.Count && x.Terminal == y.Terminal
		}):
			t.Fatalf("%s: region %d's inner paths differ from the v4 reference's", what, r)
		case !slices.Equal(centers, want.TransferCenters[r]) || !maps.Equal(counts, want.TCCounts[r]):
			t.Fatalf("%s: region %d's transfer centers or visit counts differ from the v4 reference's", what, r)
		case !slices.Equal(g.TopRoadTypes(r), want.TopTypes[r]):
			t.Fatalf("%s: region %d's top road types differ from the v4 reference's", what, r)
		}
	}
}
