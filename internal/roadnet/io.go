package roadnet

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/geo"
)

// This file implements a simple line-oriented TSV serialization for road
// networks so generated worlds can be persisted, diffed and reloaded:
//
//	V	<id>	<x>	<y>
//	E	<from>	<to>	<length_m>	<tt_s>	<fuel_l>	<type>
//
// Lines starting with '#' and blank lines are ignored. Vertex IDs must
// be dense and ascending starting at 0. Every artifact and checkpoint
// carries one such section, so both directions run on the exact
// decimal kernels of decimal.go rather than strconv's general paths;
// the bytes written and the floats read are strconv's.

// WriteTSV serializes g: the bytes fmt's %d, %.3f and %.6f would print.
// Each line is appended into one reused buffer — floats by appendFixed
// — and streamed through a bufio.Writer, so a checkpoint or a WAL
// identity hash costs no allocation per line. A bufio.Writer's errors
// stick, so Flush reports any Write's.
func WriteTSV(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	line := strconv.AppendInt(append(make([]byte, 0, 128), "# learn2route road network: "...), int64(g.NumVertices()), 10)
	line = strconv.AppendInt(append(line, " vertices, "...), int64(g.NumEdges()), 10)
	line = append(line, " edges\n"...)
	bw.Write(line)
	for v := VertexID(0); int(v) < g.NumVertices(); v++ {
		p := g.Point(v)
		line = strconv.AppendInt(append(line[:0], "V\t"...), int64(v), 10)
		line = appendFixed(append(line, '\t'), p.X, 3)
		line = appendFixed(append(line, '\t'), p.Y, 3)
		line = append(line, '\n')
		bw.Write(line)
	}
	for e := EdgeID(0); int(e) < g.NumEdges(); e++ {
		ed := g.Edge(e)
		line = strconv.AppendInt(append(line[:0], "E\t"...), int64(ed.From), 10)
		line = strconv.AppendInt(append(line, '\t'), int64(ed.To), 10)
		line = appendFixed(append(line, '\t'), ed.Length, 3)
		line = appendFixed(append(line, '\t'), ed.TravelTime, 3)
		line = appendFixed(append(line, '\t'), ed.Fuel, 6)
		line = strconv.AppendInt(append(line, '\t'), int64(ed.Type), 10)
		line = append(line, '\n')
		bw.Write(line)
	}
	return bw.Flush()
}

// ParseTSV parses a network written by WriteTSV. The result does not
// alias data. Lines are those of a bufio.Scanner — split at '\n', each
// trimmed of surrounding white space — and fields are split at '\t',
// but in place: a line costs no allocation. Numbers are read by
// parseInt and parseFloat, which answer as strconv does, error texts
// included. A vertex ID outside [0, 2^31) is an error, not wrapped.
func ParseTSV(data []byte) (*Graph, error) {
	// Reserve room for the records a first pass finds. A line counts
	// only if it is as long as the shortest valid record of its kind,
	// so what is reserved stays within a few times len(data) whatever
	// the input; a record the pass misses is appended all the same.
	nv, ne := 0, 0
	for rest := data; len(rest) > 0; {
		n := bytes.IndexByte(rest, '\n')
		if n < 0 {
			n = len(rest)
		}
		switch {
		case rest[0] == 'V' && n >= len("V\t0\t0\t0"):
			nv++
		case rest[0] == 'E' && n >= len("E\t0\t0\t1\t1\t1\t0"):
			ne++
		}
		rest = rest[min(n+1, len(rest)):]
	}
	pts := make([]geo.Point, 0, nv)
	edges := make([]Edge, 0, ne)

	var fields [8][]byte
	line := 0
	for rest := data; len(rest) > 0; {
		text := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			text, rest = rest[:i], rest[i+1:]
		} else {
			rest = nil
		}
		line++
		text = bytes.TrimSpace(text)
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		nf, start := 0, 0
		for i := 0; i <= len(text); i++ {
			if i == len(text) || text[i] == '\t' {
				if nf < len(fields) {
					fields[nf] = text[start:i]
				}
				nf, start = nf+1, i+1
			}
		}
		switch string(fields[0]) {
		case "V":
			if nf != 4 {
				return nil, fmt.Errorf("line %d: vertex needs 4 fields, got %d", line, nf)
			}
			id, err := parseInt(fields[1])
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
			if id != len(pts) {
				return nil, fmt.Errorf("line %d: vertex IDs must be dense ascending (got %d, want %d)", line, id, len(pts))
			}
			x, err := parseFloat(fields[2])
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
			y, err := parseFloat(fields[3])
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
			pts = append(pts, geo.Pt(x, y))
		case "E":
			if nf != 7 {
				return nil, fmt.Errorf("line %d: edge needs 7 fields, got %d", line, nf)
			}
			var ed Edge
			var ends [2]int
			for i := range ends {
				v, err := parseInt(fields[1+i])
				if err != nil {
					return nil, fmt.Errorf("line %d: %v", line, err)
				}
				if v < 0 || v > math.MaxInt32 {
					return nil, fmt.Errorf("line %d: vertex ID %d out of range", line, v)
				}
				ends[i] = v
			}
			ed.From, ed.To = VertexID(ends[0]), VertexID(ends[1])
			var err error
			if ed.Length, err = parseFloat(fields[3]); err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
			if ed.TravelTime, err = parseFloat(fields[4]); err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
			if ed.Fuel, err = parseFloat(fields[5]); err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
			t, err := parseInt(fields[6])
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
	// Edges carry explicit weights, so they bypass the Builder's weight
	// derivation: assemble a graph directly from the parsed records.
	n := VertexID(len(pts))
	for i, ed := range edges {
		if ed.From >= n || ed.To >= n {
			return nil, fmt.Errorf("edge %d: endpoint out of range", i)
		}
	}
	out := (&Builder{pts: pts, edges: edges}).Build()
	if err := Validate(out); err != nil {
		return nil, err
	}
	return out, nil
}
