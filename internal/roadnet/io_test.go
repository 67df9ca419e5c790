package roadnet_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/worldgen"
)

// roadSection lays pts and edges out as a road section, written here
// from the layout in io.go rather than through Graph.Append: the
// reference the encoder is held to, and a way to write sections the
// Builder cannot make (repeated pairs, self-loops, bad values).
func roadSection(pts []geo.Point, edges []roadnet.Edge) []byte {
	var b []byte
	float := func(f float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f)) }
	b = binary.AppendUvarint(b, uint64(len(pts)))
	for _, p := range pts {
		float(p.X)
		float(p.Y)
	}
	b = binary.AppendUvarint(b, uint64(len(edges)))
	from := int64(0)
	for _, ed := range edges {
		b = binary.AppendVarint(b, int64(ed.From)-from)
		b = binary.AppendVarint(b, int64(ed.To)-int64(ed.From))
		from = int64(ed.From)
		float(ed.Length)
		float(ed.TravelTime)
		float(ed.Fuel)
		b = append(b, byte(ed.Type))
	}
	return b
}

// handPoints and handEdges are a network of negative, large and
// signed-zero coordinates, weights on the rounding boundary of their
// printed precision or below it, a repeated (From, To) pair, a
// self-loop, and edges out of From order.
var (
	handPoints = []geo.Point{{X: -123456.0005, Y: 98765432.1235}, {X: -0.0004, Y: 0.0005}, {X: 1e12, Y: -1e12}, {X: math.Copysign(0, -1), Y: -2.0015}}
	handEdges  = []roadnet.Edge{
		{From: 3, To: 0, Length: 123.4565, TravelTime: 0.0025, Fuel: 0.0000015, Type: 1},
		{From: 0, To: 1, Length: 1.0005, TravelTime: 0.0015, Fuel: 0.0000005, Type: 0},
		{From: 1, To: 2, Length: 2.5e9, TravelTime: 1234.5675, Fuel: 3.1234565, Type: 5},
		{From: 0, To: 1, Length: 2, TravelTime: 2, Fuel: 0.2, Type: 4},
		{From: 2, To: 3, Length: 0.0005, TravelTime: 7.9995, Fuel: 1e-7, Type: 3},
		{From: 2, To: 2, Length: 1, TravelTime: 1, Fuel: 5e-324, Type: roadnet.NumRoadTypes - 1},
	}
)

// handBuilt decodes the hand-built network.
func handBuilt(tb testing.TB) *roadnet.Graph {
	tb.Helper()
	g, err := roadnet.Decode(roadSection(handPoints, handEdges))
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// sectionOf returns g's road section.
func sectionOf(g *roadnet.Graph) []byte {
	var e codec.Enc
	g.Append(&e)
	return e.B
}

// sameGraph reports the first difference between a and b: a point or an
// edge field not equal bit for bit, or a vertex's out- or in-edges in
// another order.
func sameGraph(a, b *roadnet.Graph) error {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return fmt.Errorf("%d vertices, %d edges; want %d, %d", b.NumVertices(), b.NumEdges(), a.NumVertices(), a.NumEdges())
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for v := roadnet.VertexID(0); int(v) < a.NumVertices(); v++ {
		if p, q := a.Point(v), b.Point(v); !same(p.X, q.X) || !same(p.Y, q.Y) {
			return fmt.Errorf("vertex %d at %v, want %v", v, q, p)
		}
		if !slices.Equal(a.Out(v), b.Out(v)) || !slices.Equal(a.In(v), b.In(v)) {
			return fmt.Errorf("vertex %d: out-edges %v in-edges %v, want %v %v", v, b.Out(v), b.In(v), a.Out(v), a.In(v))
		}
	}
	for e := roadnet.EdgeID(0); int(e) < a.NumEdges(); e++ {
		x, y := a.Edge(e), b.Edge(e)
		if x.From != y.From || x.To != y.To || x.Type != y.Type || !same(x.Length, y.Length) ||
			!same(x.TravelTime, y.TravelTime) || !same(x.Fuel, y.Fuel) {
			return fmt.Errorf("edge %d is %+v, want %+v", e, y, x)
		}
	}
	return nil
}

// TestBinaryRoundTripIsBitIdentical: Decode reads back what Append
// wrote — every coordinate and weight bit for bit, every edge ID, both
// CSR orders — and Append writes the decoded network to the same bytes
// again, on the bench cities 1–3, the ci cities 1–3 and the hand-built
// network, whose section is the reference layout's byte for byte. A
// road's identity is the hash of these bytes, so this is what lets a
// restart restore a checkpoint onto the network it decoded from the
// base artifact, and a loaded router sit on the road it was saved on.
func TestBinaryRoundTripIsBitIdentical(t *testing.T) {
	graphs := map[string]*roadnet.Graph{"hand-built": handBuilt(t)}
	for seed := int64(1); seed <= 3; seed++ {
		graphs[fmt.Sprintf("bench-%d", seed)] = worldgen.Build(worldgen.MustScale(worldgen.ScaleBench, seed)).Road
		graphs[fmt.Sprintf("ci-%d", seed)] = worldgen.Build(worldgen.MustScale(worldgen.ScaleCI, seed)).Road
	}
	if got, want := sectionOf(graphs["hand-built"]), roadSection(handPoints, handEdges); !bytes.Equal(got, want) {
		t.Fatalf("hand-built: Append wrote %d bytes, the reference layout %d", len(got), len(want))
	}
	for name, g := range graphs {
		first := sectionOf(g)
		back, err := roadnet.Decode(first)
		if err != nil {
			t.Fatalf("%s: reading back what Append wrote: %v", name, err)
		}
		if err := sameGraph(g, back); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if second := sectionOf(back); !bytes.Equal(first, second) {
			t.Fatalf("%s: %d bytes written, %d after a round trip", name, len(first), len(second))
		}
	}
}

// TestDecodeErrors: a section that is cut short, carries a byte too
// many, spells a varint longer than it needs, names an endpoint outside
// the vertices or a road type outside the set, or a weight that is not
// positive, is an error.
func TestDecodeErrors(t *testing.T) {
	pts := []geo.Point{{}, {X: 100}}
	ok := roadnet.Edge{From: 0, To: 1, Length: 100, TravelTime: 10, Fuel: 0.01, Type: roadnet.Primary}
	good := roadSection(pts, []roadnet.Edge{ok})
	if _, err := roadnet.Decode(good); err != nil {
		t.Fatal(err)
	}
	edit := func(f func(*roadnet.Edge)) []byte {
		ed := ok
		f(&ed)
		return roadSection(pts, []roadnet.Edge{ed})
	}
	cases := map[string][]byte{
		"trailing byte":     append(slices.Clone(good), 0),
		"long varint":       append([]byte{0x82, 0x00}, good[1:]...),
		"vertex count":      append([]byte{0x10}, good[1:]...),
		"range endpoint":    edit(func(e *roadnet.Edge) { e.To = 2 }),
		"negative endpoint": edit(func(e *roadnet.Edge) { e.From, e.To = -1, 0 }),
		"bad type":          edit(func(e *roadnet.Edge) { e.Type = roadnet.NumRoadTypes }),
		"zero length":       edit(func(e *roadnet.Edge) { e.Length = 0 }),
		"negative time":     edit(func(e *roadnet.Edge) { e.TravelTime = -1 }),
		"NaN fuel":          edit(func(e *roadnet.Edge) { e.Fuel = math.NaN() }),
		"far endpoint":      roadSection(pts, []roadnet.Edge{ok, {From: math.MaxInt32, To: 0, Length: 1, TravelTime: 1, Fuel: 1}}),
	}
	for i := range len(good) {
		cases[fmt.Sprintf("cut at %d", i)] = good[:i]
	}
	for name, input := range cases {
		if g, err := roadnet.Decode(input); err == nil || g != nil {
			t.Errorf("%s: Decode returned a network (err %v); want an error", name, err)
		}
	}
}

// TestDecodeAllocationBounded: a section that fails allocates at most a
// few times its length, wherever it fails: at a vertex count its bytes
// cannot hold, one byte short of its last edge, or in Validate after the
// network is built.
func TestDecodeAllocationBounded(t *testing.T) {
	const n = 1 << 20 / 32
	pts := make([]geo.Point, n)
	edges := make([]roadnet.Edge, n)
	for i := range edges {
		edges[i] = roadnet.Edge{From: roadnet.VertexID(i), To: roadnet.VertexID(i), Length: 1, TravelTime: 1, Fuel: 1}
	}
	whole := roadSection(pts, edges)
	zeroFuel := slices.Clone(whole)
	zeroFuel[len(zeroFuel)-2] = 0 // the last edge's fuel, 1.0, is 0x3ff0 in its top bytes
	zeroFuel[len(zeroFuel)-3] = 0
	for name, data := range map[string][]byte{
		"vertices cut short": roadSection(pts, nil)[:16*n/2],
		"edges cut short":    whole[:len(whole)-1],
		"invalid weight":     zeroFuel,
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := roadnet.Decode(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: expected an error", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4*uint64(len(data)) {
			t.Errorf("%s: %d bytes allocated for a %d-byte section", name, got, len(data))
		}
	}
}

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

// TestWriteTSVMatchesReference: WriteTSV's bytes equal the fmt
// reference's on the bench cities 1–3, the ci city 1 and the
// hand-built network.
func TestWriteTSVMatchesReference(t *testing.T) {
	graphs := map[string]*roadnet.Graph{"hand-built": handBuilt(t)}
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

// FuzzDecode: on any input Decode returns a network or an error without
// panicking, allocates at most 64 times the input plus 1 MiB, and a
// network it accepts encodes to the input's bytes: every section has
// one reading, and every network one section.
func FuzzDecode(f *testing.F) {
	ci, _ := worldgen.BuildGraph(worldgen.MustScale(worldgen.ScaleCI, 1))
	hand := roadSection(handPoints, handEdges)
	f.Add(sectionOf(ci))
	f.Add(hand)
	f.Add(hand[:len(hand)/2])
	f.Add([]byte{})
	f.Add(roadSection([]geo.Point{{}}, []roadnet.Edge{{Length: 1, TravelTime: 1, Fuel: 1, Type: 200}}))
	f.Add(append([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, hand[1:]...))
	f.Add(roadSection(handPoints, append(slices.Clone(handEdges), roadnet.Edge{From: 1, To: -1, Length: 1, TravelTime: 1, Fuel: 1})))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := roadnet.Decode(data)
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d > 64*uint64(len(data))+1<<20 {
			t.Fatalf("Decode of %d bytes allocated %d", len(data), d)
		}
		if (err == nil) != (g != nil) {
			t.Fatalf("Decode returned a network %v and error %v", g != nil, err)
		}
		if err == nil && !bytes.Equal(sectionOf(g), data) {
			t.Fatalf("a decoded network of %d vertices, %d edges encodes to other bytes", g.NumVertices(), g.NumEdges())
		}
	})
}

// BenchmarkDecode decodes the ci network's road section, as Load does.
func BenchmarkDecode(b *testing.B) {
	g, _ := worldgen.BuildGraph(worldgen.MustScale(worldgen.ScaleCI, 1))
	data := sectionOf(g)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := roadnet.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppend encodes the ci network's road section, as Save and
// every checkpoint do.
func BenchmarkAppend(b *testing.B) {
	g, _ := worldgen.BuildGraph(worldgen.MustScale(worldgen.ScaleCI, 1))
	e := codec.Enc{B: sectionOf(g)}
	b.SetBytes(int64(len(e.B)))
	b.ReportAllocs()
	for b.Loop() {
		e.B = e.B[:0]
		g.Append(&e)
	}
}
