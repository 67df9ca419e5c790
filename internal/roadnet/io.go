package roadnet

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/geo"
)

// This file implements a simple line-oriented TSV serialization for road
// networks so generated worlds can be persisted, diffed and reloaded:
//
//	V	<id>	<x>	<y>
//	E	<from>	<to>	<length_m>	<tt_s>	<fuel_l>	<type>
//
// Lines starting with '#' and blank lines are ignored. Vertex IDs must
// be dense and ascending starting at 0.

// WriteTSV serializes g. Each line is appended into one reused buffer
// with strconv — the bytes fmt's %d and %.Nf would print — so a
// checkpoint or a WAL identity hash costs no allocation per line. A
// bufio.Writer's errors stick, so Flush reports any Write's.
func WriteTSV(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	line := strconv.AppendInt(append(make([]byte, 0, 128), "# learn2route road network: "...), int64(g.NumVertices()), 10)
	line = strconv.AppendInt(append(line, " vertices, "...), int64(g.NumEdges()), 10)
	line = append(line, " edges\n"...)
	bw.Write(line)
	for v := VertexID(0); int(v) < g.NumVertices(); v++ {
		p := g.Point(v)
		line = strconv.AppendInt(append(line[:0], "V\t"...), int64(v), 10)
		line = strconv.AppendFloat(append(line, '\t'), p.X, 'f', 3, 64)
		line = strconv.AppendFloat(append(line, '\t'), p.Y, 'f', 3, 64)
		line = append(line, '\n')
		bw.Write(line)
	}
	for e := EdgeID(0); int(e) < g.NumEdges(); e++ {
		ed := g.Edge(e)
		line = strconv.AppendInt(append(line[:0], "E\t"...), int64(ed.From), 10)
		line = strconv.AppendInt(append(line, '\t'), int64(ed.To), 10)
		line = strconv.AppendFloat(append(line, '\t'), ed.Length, 'f', 3, 64)
		line = strconv.AppendFloat(append(line, '\t'), ed.TravelTime, 'f', 3, 64)
		line = strconv.AppendFloat(append(line, '\t'), ed.Fuel, 'f', 6, 64)
		line = strconv.AppendInt(append(line, '\t'), int64(ed.Type), 10)
		line = append(line, '\n')
		bw.Write(line)
	}
	return bw.Flush()
}

// ReadTSV parses a network written by WriteTSV.
func ReadTSV(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	b := NewBuilder()
	var edges []Edge
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, "\t")
		switch fields[0] {
		case "V":
			if len(fields) != 4 {
				return nil, fmt.Errorf("line %d: vertex needs 4 fields, got %d", line, len(fields))
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
			if id != b.NumVertices() {
				return nil, fmt.Errorf("line %d: vertex IDs must be dense ascending (got %d, want %d)", line, id, b.NumVertices())
			}
			x, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
			y, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
			b.AddVertex(geo.Pt(x, y))
		case "E":
			if len(fields) != 7 {
				return nil, fmt.Errorf("line %d: edge needs 7 fields, got %d", line, len(fields))
			}
			var ed Edge
			from, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
			to, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
			ed.From, ed.To = VertexID(from), VertexID(to)
			if ed.Length, err = strconv.ParseFloat(fields[3], 64); err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
			if ed.TravelTime, err = strconv.ParseFloat(fields[4], 64); err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
			if ed.Fuel, err = strconv.ParseFloat(fields[5], 64); err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
			t, err := strconv.Atoi(fields[6])
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
			if t < 0 || t >= int(NumRoadTypes) {
				return nil, fmt.Errorf("line %d: bad road type %d", line, t)
			}
			ed.Type = RoadType(t)
			edges = append(edges, ed)
		default:
			return nil, fmt.Errorf("line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Edges carry explicit weights, so they bypass the Builder's weight
	// derivation: assemble a graph directly from the parsed records.
	gb := &Builder{pts: b.pts, seen: map[[2]VertexID]struct{}{}}
	n := VertexID(len(b.pts))
	for i, ed := range edges {
		if ed.From < 0 || ed.From >= n || ed.To < 0 || ed.To >= n {
			return nil, fmt.Errorf("edge %d: endpoint out of range", i)
		}
		gb.edges = append(gb.edges, ed)
	}
	out := gb.Build()
	if err := Validate(out); err != nil {
		return nil, err
	}
	return out, nil
}
