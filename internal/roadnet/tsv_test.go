package roadnet_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/worldgen"
)

// writeTSVReference is roadnet.WriteTSV as it was written first, one
// fmt.Fprintf per line: the byte-for-byte reference the append writer
// is held to.
func writeTSVReference(w io.Writer, g *roadnet.Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# learn2route road network: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	for v := roadnet.VertexID(0); int(v) < g.NumVertices(); v++ {
		p := g.Point(v)
		fmt.Fprintf(bw, "V\t%d\t%.3f\t%.3f\n", v, p.X, p.Y)
	}
	for e := roadnet.EdgeID(0); int(e) < g.NumEdges(); e++ {
		ed := g.Edge(e)
		fmt.Fprintf(bw, "E\t%d\t%d\t%.3f\t%.3f\t%.6f\t%d\n",
			ed.From, ed.To, ed.Length, ed.TravelTime, ed.Fuel, ed.Type)
	}
	return bw.Flush()
}

// handBuiltTSV is a network of negative and large coordinates and
// values on the rounding boundary of their printed precision.
const handBuiltTSV = `V	0	-123456.0005	98765432.1235
V	1	-0.0004	0.0005
V	2	1e12	-1e12
V	3	2.0005	-2.0015
E	0	1	1.0005	0.0015	0.0000005	0
E	1	2	2.5e9	1234.5675	3.1234565	5
E	2	3	0.0005	7.9995	1e-7	3
E	3	0	123.4565	0.0025	0.0000015	1
`

// TestTSVRoundTripIsByteIdentical: whatever ParseTSV accepts of what
// WriteTSV wrote, it reads back to a network WriteTSV writes byte for
// byte again — on the bench cities 1–3 and the ci cities 1–3. A road's
// identity is the hash of those bytes, so this is what lets a restart
// restore a checkpoint onto the network it decoded from the base
// artifact: the two are the same bytes, so the same identity. The
// hand-built network is the boundary case: its fuel of 5e-7 l prints
// as 0.000000, which ParseTSV refuses as a non-positive weight, so no
// artifact can carry it and there is nothing to round-trip.
func TestTSVRoundTripIsByteIdentical(t *testing.T) {
	hand, err := roadnet.ParseTSV([]byte(handBuiltTSV))
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*roadnet.Graph{"hand-built": hand}
	for seed := int64(1); seed <= 3; seed++ {
		graphs[fmt.Sprintf("bench-%d", seed)] = worldgen.Build(worldgen.MustScale(worldgen.ScaleBench, seed)).Road
		graphs[fmt.Sprintf("ci-%d", seed)] = worldgen.Build(worldgen.MustScale(worldgen.ScaleCI, seed)).Road
	}
	for name, g := range graphs {
		var first, second bytes.Buffer
		if err := roadnet.WriteTSV(&first, g); err != nil {
			t.Fatal(err)
		}
		back, err := roadnet.ParseTSV(first.Bytes())
		if (err != nil) != (name == "hand-built") {
			t.Fatalf("%s: reading back what WriteTSV wrote: %v", name, err)
		}
		if err != nil {
			continue
		}
		if err := roadnet.WriteTSV(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("%s: %d bytes written, %d after a round trip", name, first.Len(), second.Len())
		}
	}
}

// TestWriteTSVMatchesReference: WriteTSV's bytes equal the fmt
// reference's on the bench cities 1–3, the ci city 1 and the
// hand-built network.
func TestWriteTSVMatchesReference(t *testing.T) {
	hand, err := roadnet.ParseTSV([]byte(handBuiltTSV))
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*roadnet.Graph{"hand-built": hand}
	for seed := int64(1); seed <= 3; seed++ {
		graphs[fmt.Sprintf("bench-%d", seed)] = worldgen.Build(worldgen.MustScale(worldgen.ScaleBench, seed)).Road
	}
	graphs["ci-1"] = worldgen.Build(worldgen.MustScale(worldgen.ScaleCI, 1)).Road
	for name, g := range graphs {
		var got, want bytes.Buffer
		if err := roadnet.WriteTSV(&got, g); err != nil {
			t.Fatal(err)
		}
		if err := writeTSVReference(&want, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			gl, wl := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
			for i := range min(len(gl), len(wl)) {
				if gl[i] != wl[i] {
					t.Fatalf("%s, line %d: %q, reference %q", name, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("%s: %d lines, reference %d", name, len(gl), len(wl))
		}
	}
}

// refGraph is what readTSVReference decodes: the points and edges, and
// each vertex's out- and in-edge lists.
type refGraph struct {
	pts     []geo.Point
	edges   []roadnet.Edge
	out, in [][]roadnet.EdgeID
}

// readTSVReference is the road reader as it was written first — a
// bufio.Scanner, strings.Split, strconv, and adjacency lists ordered by
// a sort on (From, To) and then on (To, From) — with two changes: an
// edge endpoint outside [0, 2^31) is an error, where the first reader
// wrapped it into int32, and the sorts are stable, so the copies of a
// repeated (From, To) pair keep EdgeID order, where the first reader
// left it to sort.Slice. It is the reference the byte parser and
// Builder.Build's counting sorts are held to.
func readTSVReference(r io.Reader) (*refGraph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	g := &refGraph{}
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
			if id != len(g.pts) {
				return nil, fmt.Errorf("line %d: vertex IDs must be dense ascending (got %d, want %d)", line, id, len(g.pts))
			}
			x, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
			y, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
			g.pts = append(g.pts, geo.Pt(x, y))
		case "E":
			if len(fields) != 7 {
				return nil, fmt.Errorf("line %d: edge needs 7 fields, got %d", line, len(fields))
			}
			var ed roadnet.Edge
			from, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
			to, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
			if from < 0 || from > math.MaxInt32 || to < 0 || to > math.MaxInt32 {
				return nil, fmt.Errorf("line %d: vertex ID out of range", line)
			}
			ed.From, ed.To = roadnet.VertexID(from), roadnet.VertexID(to)
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
			if t < 0 || t >= int(roadnet.NumRoadTypes) {
				return nil, fmt.Errorf("line %d: bad road type %d", line, t)
			}
			ed.Type = roadnet.RoadType(t)
			g.edges = append(g.edges, ed)
		default:
			return nil, fmt.Errorf("line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	n := roadnet.VertexID(len(g.pts))
	for i, e := range g.edges {
		if e.From >= n || e.To >= n {
			return nil, fmt.Errorf("edge %d: endpoint out of range", i)
		}
		if e.Length <= 0 || e.TravelTime <= 0 || e.Fuel <= 0 {
			return nil, fmt.Errorf("edge %d: non-positive weight", i)
		}
	}
	order := make([]roadnet.EdgeID, len(g.edges))
	for i := range order {
		order[i] = roadnet.EdgeID(i)
	}
	g.out, g.in = make([][]roadnet.EdgeID, n), make([][]roadnet.EdgeID, n)
	sort.SliceStable(order, func(i, j int) bool {
		a, c := g.edges[order[i]], g.edges[order[j]]
		if a.From != c.From {
			return a.From < c.From
		}
		return a.To < c.To
	})
	for _, e := range order {
		g.out[g.edges[e].From] = append(g.out[g.edges[e].From], e)
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, c := g.edges[order[i]], g.edges[order[j]]
		if a.To != c.To {
			return a.To < c.To
		}
		return a.From < c.From
	})
	for _, e := range order {
		g.in[g.edges[e].To] = append(g.in[g.edges[e].To], e)
	}
	return g, nil
}

// sameAsReference reports the first difference between g and ref: a
// point or an edge field not equal bit for bit, or a vertex's out- or
// in-edges in another order.
func sameAsReference(g *roadnet.Graph, ref *refGraph) error {
	if g.NumVertices() != len(ref.pts) || g.NumEdges() != len(ref.edges) {
		return fmt.Errorf("%d vertices, %d edges; reference %d, %d", g.NumVertices(), g.NumEdges(), len(ref.pts), len(ref.edges))
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for v := range ref.pts {
		p, q := g.Point(roadnet.VertexID(v)), ref.pts[v]
		if !same(p.X, q.X) || !same(p.Y, q.Y) {
			return fmt.Errorf("vertex %d at %v, reference %v", v, p, q)
		}
		if out := g.Out(roadnet.VertexID(v)); !slices.Equal(out, ref.out[v]) {
			return fmt.Errorf("vertex %d: out-edges %v, reference %v", v, out, ref.out[v])
		}
		if in := g.In(roadnet.VertexID(v)); !slices.Equal(in, ref.in[v]) {
			return fmt.Errorf("vertex %d: in-edges %v, reference %v", v, in, ref.in[v])
		}
	}
	for e, want := range ref.edges {
		got := g.Edge(roadnet.EdgeID(e))
		if got.From != want.From || got.To != want.To || got.Type != want.Type || !same(got.Length, want.Length) ||
			!same(got.TravelTime, want.TravelTime) || !same(got.Fuel, want.Fuel) {
			return fmt.Errorf("edge %d is %+v, reference %+v", e, got, want)
		}
	}
	return nil
}

// tsvOf returns WriteTSV's bytes for g.
func tsvOf(tb testing.TB, g *roadnet.Graph) []byte {
	var b bytes.Buffer
	if err := roadnet.WriteTSV(&b, g); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// FuzzReadTSV: on any input, ParseTSV and the reference reader both
// reject it, or both return the same points and edges, bit for bit,
// and the same out- and in-edge order. Inputs of 1 MiB or more are
// skipped: the reference's Scanner refuses lines that long, and
// ParseTSV has no line limit.
func FuzzReadTSV(f *testing.F) {
	ci, _ := worldgen.BuildGraph(worldgen.MustScale(worldgen.ScaleCI, 1))
	f.Add(tsvOf(f, ci))
	f.Add([]byte(handBuiltTSV))
	f.Add([]byte(strings.ReplaceAll(handBuiltTSV, "\n", "\r\n")))
	f.Add([]byte("V\t0\t0\t0\nV\t1\t1\t0\nE\t0\t1\t2\t2\t0.2\t1\nE\t1\t0\t1\t1\t0.1\t1\nE\t0\t1\t1\t1\t0.1\t4\n"))
	f.Add([]byte("V\t0\t+1.5\t1e3\nV\t1\t.5\t-2E-1\nE\t0\t+1\t.5\t1e1\t+0.25\t+2\nE\t1\t0\t5.\t0x1p3\t1_0\t0\n"))
	f.Add([]byte("V\t0\t0\t0\nV\t1\t1\t1\nE\t4294967296\t1\t1\t1\t1\t0\n"))
	f.Add([]byte("V\t0\t0\t0\nV\t1\t1\t1\nE\t0\t-4294967295\t1\t1\t1\t0\nE\t2147483648\t0\t1\t1\t1\t0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 1<<20 {
			t.Skip()
		}
		g, err := roadnet.ParseTSV(data)
		ref, refErr := readTSVReference(bytes.NewReader(data))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("ParseTSV: %v; reference: %v", err, refErr)
		}
		if err != nil {
			return
		}
		if err := sameAsReference(g, ref); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkReadTSV decodes the ci network's road section, as Load does.
func BenchmarkReadTSV(b *testing.B) {
	g, _ := worldgen.BuildGraph(worldgen.MustScale(worldgen.ScaleCI, 1))
	data := tsvOf(b, g)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := roadnet.ParseTSV(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteTSV encodes the ci network's road section, as Save and
// every checkpoint do.
func BenchmarkWriteTSV(b *testing.B) {
	g, _ := worldgen.BuildGraph(worldgen.MustScale(worldgen.ScaleCI, 1))
	var buf bytes.Buffer
	b.SetBytes(int64(len(tsvOf(b, g))))
	b.ReportAllocs()
	for b.Loop() {
		buf.Reset()
		if err := roadnet.WriteTSV(&buf, g); err != nil {
			b.Fatal(err)
		}
	}
}
