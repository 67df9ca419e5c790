package region

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"

	"repro/internal/codec"
	"repro/internal/geo"
	"repro/internal/roadnet"
)

// A snapshot's flat image is artifact v3's region section, written and
// read back by one traversal (image.snapshot):
//
//	regions      count; per region members, road type, popularity and
//	             centroid x, y
//	edges        count; per edge r1, r2, kind | has-pref<<1 | master<<2,
//	             slave, then the forward and the reverse path set: a
//	             count, and per path its count, terminal count and path
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
// a byte; 15 escapes), then the escaped steps' vertices. Decoding cuts
// every list from one backing array the trailer sizes, and every path
// set from another — full slice expressions, so none grows into its
// neighbour.

// escape is the nibble of a path step no tabulated out-edge takes.
const escape = 15

type image struct {
	enc   *codec.Enc
	dec   *codec.Dec // reading when set
	heads outHeads
	first roadnet.VertexID // the previous list's first vertex

	// Writing: the trailer's totals, and a path's escaped steps.
	vertices, infos int
	escaped         []roadnet.VertexID
	// Reading: the backing arrays the trailer sized.
	lists []roadnet.VertexID
	sets  []PathInfo
}

// Append appends s's flat image to e. s must be a graph's Snapshot, and
// road the network the graph sits on: paths are written as walks over
// its out-edges.
func (s *Snapshot) Append(e *codec.Enc, road *roadnet.Graph) {
	m := &image{enc: e, heads: newOutHeads(road)}
	m.snapshot(s)
	e.B = binary.BigEndian.AppendUint32(e.B, uint32(m.vertices))
	e.B = binary.BigEndian.AppendUint32(e.B, uint32(m.infos))
}

// DecodeSnapshot decodes the image Append wrote against road. It checks
// counts and lengths against the bytes left and path steps against
// road's out-edges, and refuses an image whose visit-count flag is not
// 1 — one saved from a graph without counts — with codec.ErrMalformed;
// Restore checks the IDs. Empty lists decode as nil and visit-count
// maps as non-nil, as a gob round trip leaves them.
func DecodeSnapshot(b []byte, road *roadnet.Graph) (*Snapshot, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("region: decoding snapshot: %w: %d bytes", codec.ErrMalformed, len(b))
	}
	body := b[:len(b)-8]
	vertices, infos := binary.BigEndian.Uint32(b[len(b)-8:]), binary.BigEndian.Uint32(b[len(b)-4:])
	// A listed vertex takes at least half a byte (a path step), a path
	// three (count, terminal count, length).
	if uint64(vertices) > 2*uint64(len(body)) || uint64(infos) > uint64(len(body))/3 {
		return nil, fmt.Errorf("region: decoding snapshot: %w: %d vertices and %d paths in %d bytes", codec.ErrMalformed, vertices, infos, len(body))
	}
	m := &image{dec: codec.NewDec(body), heads: newOutHeads(road), lists: make([]roadnet.VertexID, vertices), sets: make([]PathInfo, infos)}
	s := &Snapshot{}
	m.snapshot(s)
	if len(m.lists) != 0 || len(m.sets) != 0 {
		m.dec.Fail("%d vertices and %d paths declared but not listed", len(m.lists), len(m.sets))
	}
	if err := m.dec.Done(); err != nil {
		return nil, fmt.Errorf("region: decoding snapshot: %w", err)
	}
	return s, nil
}

func (m *image) snapshot(s *Snapshot) {
	imageLen(m, &s.Regions, 5)
	regions := len(s.Regions)
	if m.dec != nil {
		s.Centroids = make([]geo.Point, regions)
		s.Inner = make([][]InnerPath, regions)
		s.TransferCenters = make([][]roadnet.VertexID, regions)
		s.TopTypes = make([][]roadnet.RoadType, regions)
	}
	for i := range s.Regions {
		r := &s.Regions[i]
		if m.dec != nil {
			r.ID = i
		}
		m.list(&r.Members, false)
		imageByte(m, &r.RoadType)
		m.float(&r.Popularity)
		m.float(&s.Centroids[i].X)
		m.float(&s.Centroids[i].Y)
	}
	imageLen(m, &s.Edges, 6)
	for i := range s.Edges {
		e := &s.Edges[i]
		e.ID = i // the snapshot's own copy
		m.int(&e.R1)
		m.int(&e.R2)
		flags := byte(e.Kind) | boolByte(e.HasPref)<<1 | byte(e.Pref.Master)<<2
		if imageByte(m, &flags); m.dec != nil {
			e.Kind, e.HasPref, e.Pref.Master = EdgeKind(flags&1), flags&2 != 0, roadnet.Weight(flags>>2)
		}
		imageByte(m, &e.Pref.Slave)
		m.paths(&e.PathsFwd)
		m.paths(&e.PathsRev)
	}
	for r := 0; r < regions; r++ {
		imageLen(m, &s.Inner[r], 3)
		for j := range s.Inner[r] {
			ip := &s.Inner[r][j]
			m.int(&ip.Count)
			m.int(&ip.Terminal)
			m.list((*[]roadnet.VertexID)(&ip.Path), true)
		}
		m.list(&s.TransferCenters[r], false)
		imageLen(m, &s.TopTypes[r], 1)
		for j := range s.TopTypes[r] {
			imageByte(m, &s.TopTypes[r][j])
		}
	}
	counted := byte(1)
	if imageByte(m, &counted); counted != 1 {
		m.dec.Fail("visit-count flag %d, want 1", counted)
	} else if m.dec != nil {
		s.TCCounts = make([]map[roadnet.VertexID]int, regions)
	}
	for r := range s.TCCounts {
		m.counts(&s.TCCounts[r])
	}
}

func (m *image) int(p *int) {
	if m.dec != nil {
		*p = m.dec.Int()
	} else {
		m.enc.Int(*p)
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

// paths is one edge path set: its count, then each path's count,
// terminal count and path; read sets are cut from the backing array.
func (m *image) paths(set *[]PathInfo) {
	if m.dec == nil {
		m.enc.Uvarint(uint64(len(*set)))
		m.infos += len(*set)
	} else if n := m.dec.Count(3); n > len(m.sets) {
		m.dec.Fail("path sets exceed their %d paths", len(m.sets))
	} else if n > 0 {
		*set, m.sets = m.sets[:n:n], m.sets[n:]
	}
	for j := range *set {
		pi := &(*set)[j]
		m.int(&pi.Count)
		m.int(&pi.Terminal)
		m.list((*[]roadnet.VertexID)(&pi.Path), true)
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
		return
	}
	nibbles := m.dec.Bytes(len(l) / 2)
	for i := 1; i < len(l) && m.dec.Err() == nil; i++ {
		if k := nibbles[(i-1)/2] >> (4 * ((i - 1) % 2)) & 0xF; k == escape {
			l[i] = roadnet.VertexID(m.dec.Index(math.MaxInt32))
		} else if l[i] = m.heads.step(l[i-1], int(k)); l[i] < 0 {
			m.dec.Fail("path step %d from vertex %d takes no out-edge", i, l[i-1])
		}
	}
}

func (m *image) writeList(p []roadnet.VertexID, path bool) {
	m.enc.Uvarint(uint64(len(p)))
	if len(p) == 0 {
		return
	}
	m.vertices += len(p)
	m.enc.Int(int(p[0]) - int(m.first))
	if m.first = p[0]; !path {
		for i := 1; i < len(p); i++ {
			m.enc.Int(int(p[i]) - int(p[i-1]))
		}
		return
	}
	m.escaped = m.escaped[:0]
	var b byte
	// The step table is read through a local: re-read through m on
	// every step, its header made a ci checkpoint's Save take up to
	// twice as long, depending on where the heap put m.
	heads := m.heads
	for i := 1; i < len(p); i++ {
		k := byte(escape)
		for j := 0; j < heads.w && p[i] >= 0; j++ {
			if heads.step(p[i-1], j) == p[i] {
				k = byte(j)
				break
			}
		}
		if k == escape {
			m.escaped = append(m.escaped, p[i])
		}
		if b |= k << (4 * ((i - 1) % 2)); i%2 == 0 || i == len(p)-1 {
			m.enc.Byte(b)
			b = 0
		}
	}
	for _, v := range m.escaped {
		m.enc.Uvarint(uint64(uint32(v)))
	}
}

// counts is one region's transfer-center visit counts: the counted
// vertices as a set, then the counts in vertex order.
func (m *image) counts(p *map[roadnet.VertexID]int) {
	var vs []roadnet.VertexID
	if m.dec == nil {
		vs = slices.Sorted(maps.Keys(*p))
	}
	if m.list(&vs, false); m.dec != nil {
		*p = make(map[roadnet.VertexID]int, len(vs))
	}
	for _, v := range vs {
		c := (*p)[v]
		if m.int(&c); m.dec != nil {
			(*p)[v] = c
		}
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
