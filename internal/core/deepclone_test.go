package core

import (
	"testing"

	"repro/internal/roadnet"
)

// TestDeepCloneIsolatesIngest verifies the copy-on-write contract on
// the Dijkstra backend (TestIngestCloneIsolatesIngest is its CH twin;
// the name dates from the eager DeepClone this used to exercise): an
// Ingest into an IngestClone must leave the original router's
// observable state — edge kinds, path-set sizes, route answers —
// untouched.
func TestDeepCloneIsolatesIngest(t *testing.T) {
	r, fresh := splitWorld(t, 31)

	// Record the original's answers on a fixed query set.
	n := r.road.NumVertices()
	type q struct{ s, d roadnet.VertexID }
	var qs []q
	for i := 0; i < 24; i++ {
		qs = append(qs, q{roadnet.VertexID((i * 41) % n), roadnet.VertexID((i*67 + 7) % n)})
	}
	before := make([]roadnet.Path, len(qs))
	for i, query := range qs {
		before[i] = r.Route(query.s, query.d).Path
	}
	tBefore, bBefore := r.rg.TEdgeCount(), r.rg.BEdgeCount()

	cp := r.IngestClone()
	st := cp.Ingest(fresh, IngestOptions{SkipMapMatching: true})
	if len(st.TouchedEdges) == 0 {
		t.Fatal("ingest touched nothing; test world too small to prove isolation")
	}

	if got := r.rg.TEdgeCount(); got != tBefore {
		t.Fatalf("original T-edge count changed: %d -> %d", tBefore, got)
	}
	if got := r.rg.BEdgeCount(); got != bBefore {
		t.Fatalf("original B-edge count changed: %d -> %d", bBefore, got)
	}
	for i, query := range qs {
		after := r.Route(query.s, query.d).Path
		if len(after) != len(before[i]) {
			t.Fatalf("query (%d,%d): answer changed after ingest into clone", query.s, query.d)
		}
		for j := range after {
			if after[j] != before[i][j] {
				t.Fatalf("query (%d,%d): answer changed after ingest into clone", query.s, query.d)
			}
		}
	}

	// The clone itself absorbed the data and still serves valid paths.
	if cp.rg.TEdgeCount() < tBefore {
		t.Fatalf("clone lost T-edges: %d -> %d", tBefore, cp.rg.TEdgeCount())
	}
	for _, query := range qs {
		res := cp.Route(query.s, query.d)
		if len(res.Path) >= 2 && !res.Path.Valid(cp.road) {
			t.Fatalf("clone serves invalid path for (%d,%d)", query.s, query.d)
		}
	}
}

// TestDeepCloneSharesImmutableState checks, on the Dijkstra backend,
// that an IngestClone shares the expensive immutable structures and
// owns its region graph and engine (TestIngestCloneSharesHierarchy is
// the CH twin).
func TestDeepCloneSharesImmutableState(t *testing.T) {
	r, _ := splitWorld(t, 37)
	cp := r.IngestClone()
	if cp.road != r.road {
		t.Fatal("road network should be shared")
	}
	if cp.idx != r.idx {
		t.Fatal("spatial index should be shared")
	}
	if cp.rg == r.rg {
		t.Fatal("region graph must not be shared")
	}
	if cp.eng == r.eng {
		t.Fatal("engine must not be shared")
	}
}
