package core

import (
	"bytes"
	"testing"

	"repro/internal/ch"
	"repro/internal/roadnet"
	"repro/internal/route"
	"repro/internal/traj"
)

// chSplitWorld is splitWorld on the CH backend: the serving swap path
// these tests exercise (IngestClone + PrepareMetrics) is CH-specific.
func chSplitWorld(tb testing.TB, seed int64) (*Router, []*traj.Trajectory) {
	tb.Helper()
	road := roadnet.Generate(roadnet.Tiny(seed))
	sim := traj.NewSimulator(road, traj.D2Like(seed, 500))
	ts := sim.Run()
	cut := len(ts) * 6 / 10
	r, err := Build(road, ts[:cut], Options{SkipMapMatching: true, PathBackend: BackendCH})
	if err != nil {
		tb.Fatal(err)
	}
	return r, ts[cut:]
}

func sampleQueries(r *Router, n int) [][2]roadnet.VertexID {
	nv := r.road.NumVertices()
	qs := make([][2]roadnet.VertexID, n)
	for i := range qs {
		qs[i] = [2]roadnet.VertexID{roadnet.VertexID((i * 41) % nv), roadnet.VertexID((i*67 + 7) % nv)}
	}
	return qs
}

func routeAnswers(r *Router, qs [][2]roadnet.VertexID) []roadnet.Path {
	out := make([]roadnet.Path, len(qs))
	for i, q := range qs {
		out[i] = r.Route(q[0], q[1]).Path
	}
	return out
}

func samePaths(a, b []roadnet.Path) bool {
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestIngestCloneIsolatesIngest is TestDeepCloneIsolatesIngest on the
// CH backend: ingest (plus re-customization) through an IngestClone must
// leave the parent's observable state and route answers untouched.
func TestIngestCloneIsolatesIngest(t *testing.T) {
	r, fresh := chSplitWorld(t, 31)
	qs := sampleQueries(r, 24)
	before := routeAnswers(r, qs)
	tBefore, bBefore := r.rg.TEdgeCount(), r.rg.BEdgeCount()

	cp := r.IngestClone()
	st := cp.Ingest(fresh, IngestOptions{SkipMapMatching: true})
	if len(st.TouchedEdges) == 0 {
		t.Fatal("ingest touched nothing; test world too small to prove isolation")
	}
	cp.PrepareMetrics()

	if got := r.rg.TEdgeCount(); got != tBefore {
		t.Fatalf("parent T-edge count changed: %d -> %d", tBefore, got)
	}
	if got := r.rg.BEdgeCount(); got != bBefore {
		t.Fatalf("parent B-edge count changed: %d -> %d", bBefore, got)
	}
	if after := routeAnswers(r, qs); !samePaths(before, after) {
		t.Fatal("parent route answers changed after ingest into COW clone")
	}
	if cp.rg.TEdgeCount() < tBefore {
		t.Fatalf("clone lost T-edges: %d -> %d", tBefore, cp.rg.TEdgeCount())
	}
	for _, q := range qs {
		if res := cp.Route(q[0], q[1]); len(res.Path) >= 2 && !res.Path.Valid(cp.road) {
			t.Fatalf("clone serves invalid path for (%d,%d)", q[0], q[1])
		}
	}
}

// TestIngestCloneSharesHierarchy checks what IngestClone shares versus
// copies: road network, spatial index and CH topology (plus the
// customized-metric table) are shared; the region graph and engine fork
// are not.
func TestIngestCloneSharesHierarchy(t *testing.T) {
	r, _ := chSplitWorld(t, 37)
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
	base, ok1 := r.eng.(*route.CHEngine)
	fork, ok2 := cp.eng.(*route.CHEngine)
	if !ok1 || !ok2 {
		t.Fatal("CH backend lost across IngestClone")
	}
	if base.Topology() != fork.Topology() {
		t.Fatal("CH topology must be shared across IngestClone — re-contracting per swap defeats the design")
	}
}

// fullCopy returns a router sharing no mutable state with r, the way
// only a test needs one: a Save → Load round trip (of a Clone, so r's
// save generation stays put), re-enabled on the CCH when r runs on it.
func fullCopy(t *testing.T, r *Router) *Router {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Clone().Save(&buf); err != nil {
		t.Fatal(err)
	}
	cp, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.PathBackend() == BackendCH {
		cp.EnableCH(ch.Config{})
	}
	return cp
}

// TestIngestCloneMatchesDeepClone feeds the same batch through the COW
// clone and through a full copy of the router, and requires identical
// fits and route answers: sharing until written must not change
// behavior, only cost.
func TestIngestCloneMatchesDeepClone(t *testing.T) {
	r, fresh := chSplitWorld(t, 41)
	cow := r.IngestClone()
	deep := fullCopy(t, r)
	cow.Ingest(fresh, IngestOptions{SkipMapMatching: true})
	cow.PrepareMetrics()
	deep.Ingest(fresh, IngestOptions{SkipMapMatching: true})
	deep.PrepareMetrics()

	qs := sampleQueries(r, 32)
	ca, da := routeAnswers(cow, qs), routeAnswers(deep, qs)
	if !samePaths(ca, da) {
		t.Fatal("COW-clone ingest answers differ from full-copy ingest answers")
	}
	requireSameFits(t, deep, cow)
}

// TestPrepareMetricsIdempotent checks the warm-path contract: Build
// already customized everything the router routes on, so an immediate
// PrepareMetrics customizes nothing; after an ingest it pays only for
// never-seen (master, slave-mask) combinations.
func TestPrepareMetricsIdempotent(t *testing.T) {
	r, fresh := chSplitWorld(t, 43)
	if n := r.PrepareMetrics(); n != 0 {
		t.Fatalf("warm PrepareMetrics customized %d metrics, want 0", n)
	}
	che := r.eng.(*route.CHEngine)
	base := che.Customizations()

	cp := r.IngestClone()
	st := cp.Ingest(fresh, IngestOptions{SkipMapMatching: true})
	cp.PrepareMetricsTouched(st.TouchedEdges)
	grew := cp.eng.(*route.CHEngine).Customizations() - base
	// The touched-edge pass must be complete: a full scan afterwards
	// finds nothing left to customize.
	if n := cp.PrepareMetrics(); n != 0 {
		t.Fatalf("full PrepareMetrics after touched pass customized %d more metrics, want 0", n)
	}
	t.Logf("ingest introduced %d new metrics", grew)

	// A Dijkstra router reports zero without CH state.
	dij, _ := splitWorld(t, 43)
	if n := dij.PrepareMetrics(); n != 0 {
		t.Fatalf("Dijkstra PrepareMetrics = %d, want 0", n)
	}
}

// TestIngestCloneChainedGenerations mirrors serving: each generation is
// an IngestClone of the previous head. Retired generations must keep
// answering exactly as they did when current.
func TestIngestCloneChainedGenerations(t *testing.T) {
	r, fresh := chSplitWorld(t, 47)
	third := len(fresh) / 3
	if third == 0 {
		t.Fatal("not enough fresh trajectories")
	}
	qs := sampleQueries(r, 16)

	gens := []*Router{r}
	snaps := [][]roadnet.Path{routeAnswers(r, qs)}
	head := r
	for i := 0; i < 3; i++ {
		next := head.IngestClone()
		next.Ingest(fresh[i*third:(i+1)*third], IngestOptions{SkipMapMatching: true})
		next.PrepareMetrics()
		gens = append(gens, next)
		snaps = append(snaps, routeAnswers(next, qs))
		head = next
	}
	for i, gen := range gens {
		if got := routeAnswers(gen, qs); !samePaths(got, snaps[i]) {
			t.Fatalf("generation %d answers changed after later generations advanced", i)
		}
	}
}
