package roadnet

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

func TestTSVRoundTrip(t *testing.T) {
	g := Generate(Tiny(44))
	var buf bytes.Buffer
	if err := WriteTSV(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ParseTSV(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != g.NumVertices() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d",
			got.NumVertices(), got.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for v := VertexID(0); int(v) < g.NumVertices(); v++ {
		if g.Point(v).Dist(got.Point(v)) > 0.01 {
			t.Fatalf("vertex %d moved", v)
		}
	}
	for e := EdgeID(0); int(e) < g.NumEdges(); e++ {
		a, b := g.Edge(e), got.Edge(e)
		if a.From != b.From || a.To != b.To || a.Type != b.Type {
			t.Fatalf("edge %d identity mismatch", e)
		}
		if diff := a.Length - b.Length; diff > 0.01 || diff < -0.01 {
			t.Fatalf("edge %d length drift %v", e, diff)
		}
	}
}

func TestReadTSVErrors(t *testing.T) {
	cases := map[string]string{
		"bad record":     "X\t1\t2\n",
		"short vertex":   "V\t0\t1\n",
		"sparse ids":     "V\t5\t0\t0\n",
		"short edge":     "V\t0\t0\t0\nE\t0\t0\n",
		"bad type":       "V\t0\t0\t0\nV\t1\t1\t1\nE\t0\t1\t1\t1\t1\t99\n",
		"range endpoint": "V\t0\t0\t0\nE\t0\t7\t1\t1\t1\t0\n",
		"bad float":      "V\t0\tx\t0\n",
		// 2^32 wraps to vertex 0 in int32: the edge must not load as 0→1.
		"oversized id": "V\t0\t0\t0\nV\t1\t1\t1\nE\t4294967296\t1\t1\t1\t1\t0\n",
	}
	for name, input := range cases {
		if _, err := ParseTSV([]byte(input)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestReadTSVIgnoresCommentsAndBlanks(t *testing.T) {
	input := "# header\n\nV\t0\t0\t0\nV\t1\t100\t0\n# edges\nE\t0\t1\t100\t10\t0.01\t2\n"
	g, err := ParseTSV([]byte(input))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 2 || g.NumEdges() != 1 {
		t.Fatalf("parsed %d/%d", g.NumVertices(), g.NumEdges())
	}
	ed := g.Edge(0)
	if ed.Type != Primary || ed.TravelTime != 10 {
		t.Fatalf("edge fields wrong: %+v", ed)
	}
}

// TestParseTSVAllocationBounded: a section of records too short to be
// valid reserves nothing for them. ParseTSV counts the records before
// it parses them; counting every line that starts with 'V' or 'E'
// would reserve a 16-byte point per 2 input bytes of "V\n", or a
// 40-byte edge per 2 of "E\n", before the first line fails.
func TestParseTSVAllocationBounded(t *testing.T) {
	for _, rec := range []string{"V\n", "E\n", "V\t0\n", "E\t0\t1\t2\n"} {
		data := []byte(strings.Repeat(rec, (1<<20)/len(rec)))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ParseTSV(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%q × %d: expected error", rec, len(data)/len(rec))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(len(data))/8 {
			t.Errorf("%q × %d: %d bytes allocated for a %d-byte input", rec, len(data)/len(rec), got, len(data))
		}
	}
}
