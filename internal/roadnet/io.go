package roadnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/codec"
	"repro/internal/geo"
)

// A road network is stored in one format, the binary road section that
// Append writes and Decode reads; every artifact and checkpoint carries
// one, and a road's identity is the FNV-64a of its bytes. All counts and
// IDs are varints (codec.Enc), every float is its 8 bits little-endian,
// so a decoded network is the encoded one bit for bit:
//
//	uvarint |V|, then per vertex: X, Y
//	uvarint |E|, then per edge in EdgeID order:
//	  From as a zigzag delta from the previous edge's From (from 0),
//	  To as a zigzag delta from From,
//	  Length, TravelTime, Fuel, then the road type as one byte
//
// WriteTSV prints a network as text for people (cmd/l2rgen); no file
// format reads it.

// Append appends g's road section to e.
func (g *Graph) Append(e *codec.Enc) {
	float := func(f float64) { e.B = binary.LittleEndian.AppendUint64(e.B, math.Float64bits(f)) }
	e.Uvarint(uint64(len(g.pts)))
	for _, p := range g.pts {
		float(p.X)
		float(p.Y)
	}
	e.Uvarint(uint64(len(g.edges)))
	from := VertexID(0)
	for _, ed := range g.edges {
		e.Int(int(ed.From - from))
		e.Int(int(ed.To - ed.From))
		from = ed.From
		float(ed.Length)
		float(ed.TravelTime)
		float(ed.Fuel)
		e.Byte(byte(ed.Type))
	}
}

// Decode reads a road section Append wrote. A section is outside input:
// each count is bounded by the bytes left before anything is allocated
// for it, endpoints and road types are range-checked, and the network
// is built by Builder.Build and checked by Validate, so it keeps the
// section's edge IDs and the CSR order Build gives them. The result
// does not alias b.
func Decode(b []byte) (*Graph, error) {
	d := codec.NewDec(b)
	float := func(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }
	pts := make([]geo.Point, d.Count(16))
	for i := range pts {
		if p := d.Bytes(16); p != nil {
			pts[i] = geo.Pt(float(p), float(p[8:]))
		}
	}
	n := len(pts)
	edges := make([]Edge, d.Count(2+3*8+1))
	from := 0
	for i := range edges {
		from += d.Int()
		to := from + d.Int()
		w := d.Bytes(3*8 + 1)
		if w == nil {
			break
		}
		if from < 0 || from >= n || to < 0 || to >= n {
			d.Fail("edge %d: endpoint out of range", i)
			break
		}
		if w[24] >= byte(NumRoadTypes) {
			d.Fail("edge %d: bad road type %d", i, w[24])
			break
		}
		edges[i] = Edge{From: VertexID(from), To: VertexID(to),
			Length: float(w), TravelTime: float(w[8:]), Fuel: float(w[16:]), Type: RoadType(w[24])}
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("roadnet: road section: %w", err)
	}
	g := (&Builder{pts: pts, edges: edges}).Build()
	if err := Validate(g); err != nil {
		return nil, err
	}
	return g, nil
}

// WriteTSV prints g as text, one line per vertex and per edge:
//
//	V	<id>	<x>	<y>
//	E	<from>	<to>	<length_m>	<tt_s>	<fuel_l>	<type>
//
// after a '#' header line. Coordinates, lengths and travel times are
// rounded to three decimals and fuel to six, as fmt's %.3f and %.6f
// print them.
func WriteTSV(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	line := fmt.Appendf(nil, "# learn2route road network: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	bw.Write(line)
	for v, p := range g.pts {
		line = strconv.AppendInt(append(line[:0], "V\t"...), int64(v), 10)
		line = strconv.AppendFloat(append(line, '\t'), p.X, 'f', 3, 64)
		line = strconv.AppendFloat(append(line, '\t'), p.Y, 'f', 3, 64)
		bw.Write(append(line, '\n'))
	}
	for _, ed := range g.edges {
		line = strconv.AppendInt(append(line[:0], "E\t"...), int64(ed.From), 10)
		line = strconv.AppendInt(append(line, '\t'), int64(ed.To), 10)
		line = strconv.AppendFloat(append(line, '\t'), ed.Length, 'f', 3, 64)
		line = strconv.AppendFloat(append(line, '\t'), ed.TravelTime, 'f', 3, 64)
		line = strconv.AppendFloat(append(line, '\t'), ed.Fuel, 'f', 6, 64)
		line = strconv.AppendInt(append(line, '\t'), int64(ed.Type), 10)
		bw.Write(append(line, '\n'))
	}
	return bw.Flush()
}
