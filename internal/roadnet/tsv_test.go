package roadnet_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

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

// TestTSVRoundTripIsByteIdentical: whatever ReadTSV accepts of what
// WriteTSV wrote, it reads back to a network WriteTSV writes byte for
// byte again — on the bench cities 1–3 and the ci cities 1–3. A road's
// identity is the hash of those bytes, so this is what lets a restart
// restore a checkpoint onto the network it decoded from the base
// artifact: the two are the same bytes, so the same identity. The
// hand-built network is the boundary case: its fuel of 5e-7 l prints
// as 0.000000, which ReadTSV refuses as a non-positive weight, so no
// artifact can carry it and there is nothing to round-trip.
func TestTSVRoundTripIsByteIdentical(t *testing.T) {
	hand, err := roadnet.ReadTSV(strings.NewReader(handBuiltTSV))
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
		back, err := roadnet.ReadTSV(bytes.NewReader(first.Bytes()))
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
	hand, err := roadnet.ReadTSV(strings.NewReader(handBuiltTSV))
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
