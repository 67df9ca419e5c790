package region

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/codec"
	"repro/internal/geo"
	"repro/internal/roadnet"
)

// A region graph's image is the artifact's region section, written and
// read back by one traversal of the graph (image.graph):
//
//	regions      count; per region members, road type, popularity and
//	             centroid x, y
//	trips        count; per trip a path: the span of the trip its stored
//	             paths cover
//	edges        count; per edge r1, r2, kind | has-pref<<1 | master<<2,
//	             slave, then the forward and the reverse path set: a
//	             count, and per path its count, terminal count and
//	             window
//	per region   inner paths (the same three each), transfer centers,
//	             top road types
//	visit counts a flag, always 1, then per region the counted vertices
//	             and counts
//	trailer      uint32 totals of listed vertices and of edge paths
//
// Integers are zigzag varints, floats codec.Enc.Float64's. A vertex list
// is its length and first vertex, a delta from the last list's first;
// then a set continues in deltas, and a path in one nibble per step
// naming which of the vertex's first fifteen out-edges it takes (two to
// a byte; 15 escapes), then the escaped steps' vertices. A window is a
// stored path as its trip's index, a delta from the previous window's
// (paths are added in trip order, so consecutive windows name nearby
// trips), its offset in the trip and its length, so each trip is
// written once however many paths it holds (trips.go); trips no stored
// path names are not written, and written trips are numbered in table
// order. Decoding cuts every list from one backing array the trailer
// sizes — the trips, one after another, are the decoded graph's one
// trip batch — every window from its trip, every path set from a second
// array and the visit counts from a third, all with full slice
// expressions, so none grows into its neighbour. What the graph derives
// (the vertex→region map and the adjacency) and an edge's fit
// (Edge.Fit) are not in the image.

// escape is the nibble of a path step no tabulated out-edge takes.
const escape = 15

type image struct {
	enc   *codec.Enc
	dec   *codec.Dec // reading when set
	heads outHeads
	first roadnet.VertexID // the previous list's first vertex
	trip  int32            // the previous window's trip index

	// Writing: the trailer's totals, a path's escaped steps and the
	// trips written.
	vertices, infos int
	escaped         []roadnet.VertexID
	spans           tripSpans
	// Reading: the backing arrays the trailer sized, and the trips.
	lists     []roadnet.VertexID
	sets      []PathInfo
	pairs     []visitCount
	tripsRead *tripBatch
}

// Append appends g's image to e. Paths are written as walks over the
// out-edges of g.Road.
func (g *Graph) Append(e *codec.Enc) {
	m := &image{enc: e, heads: newOutHeads(g.Road)}
	m.graph(g)
	e.B = binary.BigEndian.AppendUint32(e.B, uint32(m.vertices))
	e.B = binary.BigEndian.AppendUint32(e.B, uint32(m.infos))
}

// Decode builds the region graph over road whose image Append wrote.
// The image is outside input — an artifact read from disk — so Decode
// checks counts and lengths against the bytes left, path steps against
// road's out-edges, and every ID where it reads it: vertices against
// road, road types and preferences against their ranges,
// each edge's pair as 0 ≤ R1 < R2 < the region count; once the
// adjacency is built, that no two edges join the same regions; and
// that each region's counted vertices ascend. An image whose
// visit-count flag is not 1 — one saved from a graph without counts —
// is codec.ErrMalformed, as is any count, path count or edge endpoint
// that does not fit an int32 (codec.Dec.Int). Empty lists decode as
// nil.
func Decode(b []byte, road *roadnet.Graph) (*Graph, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("region: decoding graph: %w: %d bytes", codec.ErrMalformed, len(b))
	}
	body := b[:len(b)-8]
	vertices, infos := binary.BigEndian.Uint32(b[len(b)-8:]), binary.BigEndian.Uint32(b[len(b)-4:])
	// A listed vertex takes at least half a byte (a path step), a path
	// five (count, terminal count, trip, offset, length); trip offsets
	// are int32s.
	if uint64(vertices) > min(2*uint64(len(body)), math.MaxInt32) || uint64(infos) > uint64(len(body))/5 {
		return nil, fmt.Errorf("region: decoding graph: %w: %d vertices and %d paths in %d bytes", codec.ErrMalformed, vertices, infos, len(body))
	}
	m := &image{dec: codec.NewDec(body), heads: newOutHeads(road), lists: make([]roadnet.VertexID, vertices), sets: make([]PathInfo, infos)}
	g := &Graph{Road: road}
	m.graph(g)
	if len(m.lists) != 0 || len(m.sets) != 0 {
		m.dec.Fail("%d vertices and %d paths declared but not listed", len(m.lists), len(m.sets))
	}
	if err := m.dec.Done(); err != nil {
		return nil, fmt.Errorf("region: decoding graph: %w", err)
	}
	g.regionOf = make([]int32, road.NumVertices())
	for i := range g.regionOf {
		g.regionOf[i] = -1
	}
	for i, r := range g.Regions {
		for _, v := range r.Members {
			g.regionOf[v] = int32(i)
		}
	}
	// Canonical adjacency order (neighbor region ID, as insertAdj keeps
	// it), so a decoded graph traverses neighbors exactly as the graph
	// that wrote the image did, and FindEdge can search it. A region
	// pair carries one edge, so neighbors must not repeat. The lists
	// are capped windows of one array the degrees size, so they hold no
	// spare capacity and an insert never writes into a neighbour.
	degree := make([]int, len(g.Regions))
	for _, e := range g.Edges {
		degree[e.R1]++
		degree[e.R2]++
	}
	links, lo := make([]Link, 2*len(g.Edges)), 0
	g.adj = make([][]Link, len(g.Regions))
	for r, d := range degree {
		if d > 0 {
			g.adj[r] = links[lo : lo : lo+d]
		}
		lo += d
	}
	for _, e := range g.Edges {
		g.adj[e.R1] = append(g.adj[e.R1], Link{e.R2, e.ID})
		g.adj[e.R2] = append(g.adj[e.R2], Link{e.R1, e.ID})
	}
	for _, a := range g.adj {
		slices.SortFunc(a, func(x, y Link) int { return int(x.To - y.To) })
		for i := 1; i < len(a); i++ {
			if a[i].To == a[i-1].To {
				return nil, fmt.Errorf("region: decoding graph: %w: edges %d and %d join the same regions", codec.ErrMalformed, a[i-1].Edge, a[i].Edge)
			}
		}
	}
	return g, nil
}

// graph is the one traversal of a graph's image: it writes g, or reads
// g's regions, edges and per-region lists.
func (m *image) graph(g *Graph) {
	imageLen(m, &g.Regions, 5)
	regions := len(g.Regions)
	if m.dec != nil {
		g.centroids = make([]geo.Point, regions)
		g.inner = make([][]InnerPath, regions)
		g.transferCenters = make([][]roadnet.VertexID, regions)
		g.topTypes = make([][]roadnet.RoadType, regions)
	}
	for i := range g.Regions {
		r := &g.Regions[i]
		m.list(&r.Members, false)
		if imageByte(m, &r.RoadType); m.dec != nil {
			r.ID = i
			if r.RoadType >= roadnet.NumRoadTypes {
				m.dec.Fail("region %d of road type %d", i, r.RoadType)
			}
		}
		m.float(&r.Popularity)
		m.float(&g.centroids[i].X)
		m.float(&g.centroids[i].Y)
	}
	m.trips(g)
	imageLen(m, &g.Edges, 6)
	if m.dec != nil {
		edges := make([]Edge, len(g.Edges))
		for i := range g.Edges {
			edges[i].ID, g.Edges[i] = int32(i), &edges[i]
		}
	}
	for _, e := range g.Edges {
		m.int32(&e.R1)
		m.int32(&e.R2)
		flags := byte(e.Kind) | boolByte(e.HasPref)<<1 | byte(e.Pref.Master)<<2
		if imageByte(m, &flags); m.dec != nil {
			e.Kind, e.HasPref, e.Pref.Master = EdgeKind(flags&1), flags&2 != 0, roadnet.Weight(flags>>2)
		}
		if imageByte(m, &e.Pref.Slave); m.dec != nil && (e.R1 < 0 || e.R1 >= e.R2 || int(e.R2) >= regions || e.HasPref && !e.Pref.Valid()) {
			m.dec.Fail("edge %d joins regions %d and %d of %d, or prefers %+v", e.ID, e.R1, e.R2, regions, e.Pref)
		}
		m.paths(&e.PathsFwd)
		m.paths(&e.PathsRev)
	}
	for r := 0; r < regions; r++ {
		imageLen(m, &g.inner[r], 5)
		for j := range g.inner[r] {
			ip := &g.inner[r][j]
			m.int32(&ip.Count)
			m.int32(&ip.Terminal)
			m.window(&ip.Path, &ip.trip, &ip.off)
		}
		m.list(&g.transferCenters[r], false)
		imageLen(m, &g.topTypes[r], 1)
		for j := range g.topTypes[r] {
			if imageByte(m, &g.topTypes[r][j]); m.dec != nil && g.topTypes[r][j] >= roadnet.NumRoadTypes {
				m.dec.Fail("region %d's top road type %d", r, g.topTypes[r][j])
			}
		}
	}
	counted := byte(1)
	if imageByte(m, &counted); counted != 1 {
		m.dec.Fail("visit-count flag %d, want 1", counted)
	} else if m.dec != nil {
		// The vertices left to list are the counted ones, a pair each.
		g.tcCounts, m.pairs = make([][]visitCount, regions), make([]visitCount, len(m.lists))
	}
	for r := range g.tcCounts {
		m.counts(&g.tcCounts[r])
	}
}

func (m *image) int32(p *int32) {
	if m.dec != nil {
		*p = int32(m.dec.Int()) // Int fails what does not fit an int32
	} else {
		m.enc.Int(int(*p))
	}
}

func (m *image) float(p *float64) {
	if m.dec != nil {
		*p = m.dec.Float64()
	} else {
		m.enc.Float64(*p)
	}
}

func imageByte[T ~uint8](m *image, p *T) {
	if m.dec != nil {
		*p = T(m.dec.Byte())
	} else {
		m.enc.Byte(byte(*p))
	}
}

// imageLen writes a slice's length, or reads one — elements taking at
// least minBytes each — and allocates the slice, left nil when empty.
func imageLen[T any](m *image, s *[]T, minBytes int) {
	if m.dec == nil {
		m.enc.Uvarint(uint64(len(*s)))
	} else if n := m.dec.Count(minBytes); n > 0 {
		*s = make([]T, n)
	}
}

// trips is the trip table: the count of trips written, then each as a
// path. A decoded graph's trips are one batch, their vertices one run
// of the lists' backing array.
func (m *image) trips(g *Graph) {
	if m.dec == nil {
		m.spans = spansOf(g)
		m.enc.Uvarint(uint64(m.spans.written))
		m.spans.each(func(span roadnet.Path) { m.writeList(span, true) })
		return
	}
	n := m.dec.Count(1)
	if n == 0 {
		return
	}
	all, b := m.lists, &tripBatch{ends: make([]int32, n)}
	for i := range b.ends {
		var trip []roadnet.VertexID
		m.list(&trip, true)
		b.ends[i] = int32(len(all) - len(m.lists))
	}
	b.verts, g.trips, m.tripsRead = all[:b.ends[n-1]], b, b
}

// window is one stored path: its trip's index as a delta from the
// previous window's, its offset in the trip and its length. A read
// window is cut from its trip, capped.
func (m *image) window(p *roadnet.Path, trip, off *int32) {
	if m.dec == nil {
		s, n := m.spans.pos(*trip), len(*p)
		m.enc.Int(int(m.spans.idx[s] - m.trip))
		m.enc.Uvarint(uint64(*off - m.spans.lo[s]))
		m.enc.Uvarint(uint64(n))
		m.trip = m.spans.idx[s]
		return
	}
	t, o, n := int(m.trip)+m.dec.Int(), m.dec.Uvarint(), m.dec.Uvarint()
	if m.dec.Err() != nil {
		return
	}
	var trips int
	if m.tripsRead != nil {
		trips = len(m.tripsRead.ends)
	}
	if t < 0 || t >= trips {
		m.dec.Fail("a path in trip %d of %d", t, trips)
		return
	}
	tr := m.tripsRead.trip(t)
	if o > uint64(len(tr)) || n > uint64(len(tr))-o {
		m.dec.Fail("a path of %d vertices at %d in trip %d of %d", n, o, t, len(tr))
		return
	}
	*p, *trip, *off, m.trip = tr[o:o+n:o+n], int32(t), int32(o), int32(t)
}

// paths is one edge path set: its count, then each path's count,
// terminal count and window; read sets are cut from the backing array.
func (m *image) paths(set *[]PathInfo) {
	if m.dec == nil {
		m.enc.Uvarint(uint64(len(*set)))
		m.infos += len(*set)
	} else if n := m.dec.Count(5); n > len(m.sets) {
		m.dec.Fail("path sets exceed their %d paths", len(m.sets))
	} else if n > 0 {
		*set, m.sets = m.sets[:n:n], m.sets[n:]
	}
	for j := range *set {
		pi := &(*set)[j]
		m.int32(&pi.Count)
		m.int32(&pi.Terminal)
		m.window(&pi.Path, &pi.trip, &pi.off)
	}
}

// list is one vertex list: a set, or with path set a walk over the
// road's out-edges.
func (m *image) list(p *[]roadnet.VertexID, path bool) {
	if m.dec == nil {
		m.writeList(*p, path)
		return
	}
	n := m.dec.Uvarint()
	if n > uint64(len(m.lists)) {
		m.dec.Fail("lists exceed their %d vertices", len(m.lists))
	}
	if n == 0 || m.dec.Err() != nil {
		return
	}
	l := m.lists[:n:n]
	m.lists, *p = m.lists[n:], l
	codec.Deltas(m.dec, l[:1], m.first)
	if m.first = l[0]; !path {
		codec.Deltas(m.dec, l[1:], l[0])
	} else {
		nibbles := m.dec.Bytes(len(l) / 2)
		for i := 1; i < len(l) && m.dec.Err() == nil; i++ {
			if k := nibbles[(i-1)/2] >> (4 * ((i - 1) % 2)) & 0xF; k == escape {
				l[i] = roadnet.VertexID(m.dec.Index(math.MaxInt32))
			} else if l[i] = m.heads.step(l[i-1], int(k)); l[i] < 0 {
				m.dec.Fail("path step %d from vertex %d takes no out-edge", i, l[i-1])
			}
		}
	}
	if v := slices.Max(l); int(v) >= m.heads.n {
		m.dec.Fail("vertex %d in a road of %d", v, m.heads.n)
	}
}

func (m *image) writeList(p []roadnet.VertexID, path bool) {
	// The output, the escaped steps and the step table are locals: read
	// and written through m on every step, their headers made a ci
	// checkpoint's Save take up to twice as long, depending on where
	// the heap put m and the buffer.
	out := binary.AppendUvarint(m.enc.B, uint64(len(p)))
	if len(p) > 0 {
		m.vertices += len(p)
		out = binary.AppendVarint(out, int64(p[0])-int64(m.first))
		m.first = p[0]
	}
	if !path {
		for i := 1; i < len(p); i++ {
			out = binary.AppendVarint(out, int64(p[i])-int64(p[i-1]))
		}
		m.enc.B = out
		return
	}
	escaped, heads := m.escaped[:0], m.heads
	var b byte
	for i := 1; i < len(p); i++ {
		k := byte(escape)
		if u := p[i-1]; u >= 0 && int(u) < heads.n && p[i] >= 0 {
			if j := slices.Index(heads.heads[int(u)*heads.w:int(u+1)*heads.w], p[i]); j >= 0 {
				k = byte(j)
			}
		}
		if k == escape {
			escaped = append(escaped, p[i])
		}
		if b |= k << (4 * ((i - 1) % 2)); i%2 == 0 || i == len(p)-1 {
			out = append(out, b)
			b = 0
		}
	}
	for _, v := range escaped {
		out = binary.AppendUvarint(out, uint64(uint32(v)))
	}
	m.enc.B, m.escaped = out, escaped
}

// counts is one region's transfer-center visit counts: the counted
// vertices as a set, then the counts in vertex order. Read pairs are
// cut from one backing array.
func (m *image) counts(p *[]visitCount) {
	if m.dec == nil {
		cs, prev := *p, m.first
		m.enc.Uvarint(uint64(len(cs)))
		for _, x := range cs {
			m.enc.Int(int(x.v) - int(prev))
			prev = x.v
		}
		if len(cs) > 0 {
			m.vertices += len(cs)
			m.first = cs[0].v
		}
		for _, x := range cs {
			m.enc.Int(int(x.c))
		}
		return
	}
	var vs []roadnet.VertexID
	if m.list(&vs, false); len(vs) == 0 || m.dec.Err() != nil {
		return
	}
	cs := m.pairs[:len(vs):len(vs)]
	m.pairs, *p = m.pairs[len(vs):], cs
	for i, v := range vs {
		if i > 0 && v <= vs[i-1] {
			m.dec.Fail("counted vertex %d after %d", v, vs[i-1])
		}
		cs[i].v = v
		m.int32(&cs[i].c)
	}
}

// outHeads tabulates the road's out-edge heads a path's nibbles index:
// row u holds the heads of u's first w out-edges, padded with -1, so a
// decoded step — each depends on the one before — is one load.
type outHeads struct {
	n, w  int
	heads []roadnet.VertexID
}

func newOutHeads(road *roadnet.Graph) outHeads {
	o := outHeads{n: road.NumVertices(), w: 1}
	for u := 0; u < o.n; u++ {
		o.w = max(o.w, min(len(road.Out(roadnet.VertexID(u))), escape))
	}
	o.heads = make([]roadnet.VertexID, o.n*o.w)
	for u := 0; u < o.n; u++ {
		row := o.heads[u*o.w : (u+1)*o.w]
		for k := range row {
			row[k] = -1
		}
		for k, e := range road.Out(roadnet.VertexID(u))[:min(len(road.Out(roadnet.VertexID(u))), o.w)] {
			row[k] = road.Edge(e).To
		}
	}
	return o
}

// step returns the head of u's k-th out-edge, or -1 for a vertex not in
// the road or an out-edge not in the table.
func (o outHeads) step(u roadnet.VertexID, k int) roadnet.VertexID {
	if u < 0 || int(u) >= o.n || k >= o.w {
		return -1
	}
	return o.heads[int(u)*o.w+k]
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
