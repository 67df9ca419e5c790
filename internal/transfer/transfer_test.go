package transfer

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/pref"
	"repro/internal/region"
	"repro/internal/roadnet"
	"repro/internal/route"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	prefs := []pref.Preference{
		{Master: roadnet.DI, Slave: pref.NoSlave},
		{Master: roadnet.TT, Slave: pref.Highways},
		{Master: roadnet.FC, Slave: pref.SlaveOf(roadnet.Residential)},
	}
	for _, p := range prefs {
		cols := Encode(p)
		if len(cols) != 2 {
			t.Fatalf("encode %v = %v", p, cols)
		}
		row := make([]float64, NumColumns())
		for _, c := range cols {
			row[c] = 1
		}
		got, ok := Decode(row)
		if !ok {
			t.Fatalf("decode of %v returned null", p)
		}
		if got != p {
			t.Fatalf("roundtrip %v -> %v", p, got)
		}
	}
}

func TestDecodeNull(t *testing.T) {
	row := make([]float64, NumColumns())
	if _, ok := Decode(row); ok {
		t.Fatal("all-zero row should be null")
	}
	row[0] = 1e-9
	if _, ok := Decode(row); ok {
		t.Fatal("sub-threshold row should be null")
	}
}

func TestJaccard(t *testing.T) {
	a := pref.Preference{Master: roadnet.DI, Slave: pref.Highways}
	if got := Jaccard(a, a); got != 1 {
		t.Errorf("self jaccard = %v", got)
	}
	b := pref.Preference{Master: roadnet.TT, Slave: pref.SlaveOf(roadnet.Primary)}
	if got := Jaccard(a, b); got != 0 {
		t.Errorf("disjoint jaccard = %v", got)
	}
	c := pref.Preference{Master: roadnet.DI, Slave: pref.SlaveOf(roadnet.Primary)}
	// Shares master only: |∩|=1, |∪|=3.
	if got := Jaccard(a, c); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("partial jaccard = %v", got)
	}
}

func TestReSimProperties(t *testing.T) {
	f1 := Features{Dis: 1000, F: []RoadTypePair{{roadnet.Primary, roadnet.Primary}}}
	if s := ReSim(f1, f1); math.Abs(s-1) > 1e-12 {
		t.Errorf("self reSim = %v", s)
	}
	f2 := Features{Dis: 2000, F: []RoadTypePair{{roadnet.Primary, roadnet.Primary}}}
	s := ReSim(f1, f2)
	if math.Abs(s-(0.5*0.5+0.5*1)) > 1e-12 {
		t.Errorf("half-distance reSim = %v", s)
	}
	if ReSim(f1, f2) != ReSim(f2, f1) {
		t.Error("reSim not symmetric")
	}
	f3 := Features{Dis: 1000, F: []RoadTypePair{{roadnet.Residential, roadnet.Residential}}}
	if got := ReSim(f1, f3); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("disjoint-F reSim = %v", got)
	}
	// Range check.
	for _, pair := range [][2]Features{{f1, f2}, {f1, f3}, {f2, f3}} {
		if s := ReSim(pair[0], pair[1]); s < 0 || s > 1 {
			t.Errorf("reSim out of range: %v", s)
		}
	}
}

func TestJaccardPairsEdgeCases(t *testing.T) {
	if got := jaccardPairs(nil, nil); got != 1 {
		t.Errorf("empty/empty = %v", got)
	}
	one := []RoadTypePair{{roadnet.Primary, roadnet.Trunk}}
	if got := jaccardPairs(one, nil); got != 0 {
		t.Errorf("one/empty = %v", got)
	}
}

// transferWorld fabricates a region graph with four regions on a uniform
// grid: two connected by a trajectory (T-edge) and two connected only
// structurally (B-edge after BFS), with identical geometry so the
// T-edge/B-edge similarity is maximal.
func transferWorld(t *testing.T) (*roadnet.Graph, *region.Graph) {
	t.Helper()
	g := roadnet.GenerateGrid(12, 2, 100, roadnet.Secondary)
	// Grid vertex ids: i*2+j for column i, row j. Use row 0 vertices for
	// region anchors: columns 0-1, 3-4, 6-7, 9-10.
	mem := func(cols ...int) []roadnet.VertexID {
		var out []roadnet.VertexID
		for _, c := range cols {
			out = append(out, roadnet.VertexID(c*2), roadnet.VertexID(c*2+1))
		}
		return out
	}
	regions := []cluster.Region{
		{ID: 0, Members: mem(0, 1), RoadType: roadnet.Secondary},
		{ID: 1, Members: mem(3, 4), RoadType: roadnet.Secondary},
		{ID: 2, Members: mem(6, 7), RoadType: roadnet.Secondary},
		{ID: 3, Members: mem(9, 10), RoadType: roadnet.Secondary},
	}
	// Trajectory along row 0 from region 0 to region 1 only.
	path := roadnet.Path{0, 2, 4, 6, 8}
	rg := region.Build(g, regions, []roadnet.Path{path}, region.Options{})
	rg.ConnectBFS()
	return g, rg
}

func TestRunTransfersToSimilarBEdge(t *testing.T) {
	_, rg := transferWorld(t)
	tEdge := rg.FindEdge(0, 1)
	if tEdge == nil || tEdge.Kind != region.TEdge {
		t.Fatal("expected T-edge (0,1)")
	}
	bEdge := rg.FindEdge(2, 3)
	if bEdge == nil || bEdge.Kind != region.BEdge {
		t.Fatal("expected B-edge (2,3)")
	}
	planted := pref.Preference{Master: roadnet.FC, Slave: pref.Highways}
	res := Run(rg,
		[]Labeled{{EdgeID: int(tEdge.ID), Pref: planted}},
		[]int{int(bEdge.ID)},
		DefaultConfig(), 1)
	got, ok := res.Pref[int(bEdge.ID)]
	if !ok {
		t.Fatalf("B-edge not labeled; nulls=%v", res.Null)
	}
	if got != planted {
		t.Errorf("transferred %v want %v", got, planted)
	}
	if res.NullRate() != 0 {
		t.Errorf("null rate = %v", res.NullRate())
	}
	if res.SolveIterations <= 0 {
		t.Error("no solver iterations recorded")
	}
}

func TestRunImpossibleAMRGivesNull(t *testing.T) {
	_, rg := transferWorld(t)
	tEdge := rg.FindEdge(0, 1)
	bEdge := rg.FindEdge(2, 3)
	cfg := DefaultConfig()
	cfg.AMR = 1.01 // nothing is this similar
	res := Run(rg,
		[]Labeled{{EdgeID: int(tEdge.ID), Pref: pref.Preference{Master: roadnet.DI}}},
		[]int{int(bEdge.ID)}, cfg, 1)
	if len(res.Pref) != 0 {
		t.Fatalf("expected no transfers, got %v", res.Pref)
	}
	if len(res.Null) != 1 || res.NullRate() != 1 {
		t.Fatalf("expected one null, got %v (rate %v)", res.Null, res.NullRate())
	}
}

func TestAdjacencyDensityMonotone(t *testing.T) {
	_, rg := transferWorld(t)
	var ids []int
	for _, e := range rg.Edges {
		ids = append(ids, int(e.ID))
	}
	d5 := AdjacencyDensity(rg, ids, 0.5)
	d9 := AdjacencyDensity(rg, ids, 0.9)
	if d9 > d5 {
		t.Errorf("density not monotone: amr 0.9 -> %d, amr 0.5 -> %d", d9, d5)
	}
}

func TestMaterialize(t *testing.T) {
	g, rg := transferWorld(t)
	tEdge := rg.FindEdge(0, 1)
	bEdge := rg.FindEdge(2, 3)
	planted := pref.Preference{Master: roadnet.DI, Slave: pref.NoSlave}
	res := Run(rg,
		[]Labeled{{EdgeID: int(tEdge.ID), Pref: planted}},
		[]int{int(bEdge.ID)}, DefaultConfig(), 1)
	finder := &testFinder{eng: route.NewEngine(g)}
	attached := Materialize(rg, res, finder)
	if attached == 0 {
		t.Fatal("nothing materialized")
	}
	if !bEdge.HasPref {
		t.Error("B-edge preference not recorded")
	}
	// Both directions must now carry at least one path.
	if len(bEdge.PathsFrom(2)) == 0 || len(bEdge.PathsFrom(3)) == 0 {
		t.Fatalf("B-edge path sets: fwd=%d rev=%d",
			len(bEdge.PathsFrom(2)), len(bEdge.PathsFrom(3)))
	}
	for _, pi := range bEdge.PathsFrom(2) {
		if !pi.Path.Valid(g) {
			t.Fatalf("materialized path invalid: %v", pi.Path)
		}
	}
}

func TestMaterializeNullUsesFastest(t *testing.T) {
	g, rg := transferWorld(t)
	tEdge := rg.FindEdge(0, 1)
	bEdge := rg.FindEdge(2, 3)
	cfg := DefaultConfig()
	cfg.AMR = 1.01
	res := Run(rg,
		[]Labeled{{EdgeID: int(tEdge.ID), Pref: pref.Preference{Master: roadnet.DI}}},
		[]int{int(bEdge.ID)}, cfg, 1)
	finder := &testFinder{eng: route.NewEngine(g)}
	Materialize(rg, res, finder)
	if bEdge.HasPref {
		t.Error("null edge should have no preference")
	}
	if len(bEdge.PathsFrom(2)) == 0 {
		t.Error("null edge should still get fastest paths")
	}
	if finder.fastCalls == 0 {
		t.Error("fastest-path fallback never used")
	}
}

type testFinder struct {
	eng       *route.Engine
	fastCalls int
}

func (f *testFinder) FindPath(p pref.Preference, s, d roadnet.VertexID) (roadnet.Path, bool) {
	path, _, ok := f.eng.RoutePref(s, d, p.Master, p.Slave.Predicate())
	return path, ok
}

func (f *testFinder) FastestPath(s, d roadnet.VertexID) (roadnet.Path, bool) {
	f.fastCalls++
	path, _, ok := f.eng.Fastest(s, d)
	return path, ok
}

// TestRunDegenerateSystems drives Run through the systems on which a
// solver that divides by the diagonal could produce NaN; each must come
// back finite, with the affected edges declared null.
func TestRunDegenerateSystems(t *testing.T) {
	_, rg := transferWorld(t)
	tEdge := rg.FindEdge(0, 1)
	bEdge := rg.FindEdge(2, 3)
	var all []int
	for _, e := range rg.Edges {
		all = append(all, int(e.ID))
	}
	planted := pref.Preference{Master: roadnet.FC, Slave: pref.Highways}
	one := []Labeled{{EdgeID: int(tEdge.ID), Pref: planted}}
	with := func(mod func(*Config)) Config {
		cfg := DefaultConfig()
		mod(&cfg)
		return cfg
	}
	for _, tc := range []struct {
		name      string
		labeled   []Labeled
		targets   []int
		cfg       Config
		wantNull  int
		wantIters func(iters int) bool
	}{
		{name: "µ2 = 0 leaves an isolated unlabeled row with a zero diagonal",
			labeled: one, targets: []int{int(bEdge.ID)},
			cfg:      with(func(c *Config) { c.Mu2, c.AMR = 0, 1.01 }),
			wantNull: 1, wantIters: func(it int) bool { return it > 0 }},
		{name: "no labeled edges: every column is inactive",
			labeled: nil, targets: all, cfg: DefaultConfig(),
			wantNull: len(all), wantIters: func(it int) bool { return it == 0 }},
		{name: "columns no label activates stay exactly zero",
			labeled: one, targets: all, cfg: DefaultConfig(),
			wantNull: 0, wantIters: func(it int) bool { return it > 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := Run(rg, tc.labeled, tc.targets, tc.cfg, 2)
			active := make(map[int]bool)
			for _, l := range tc.labeled {
				for _, c := range Encode(l.Pref) {
					active[c] = true
				}
			}
			for i, row := range res.Yhat {
				for c, v := range row {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("Yhat[%d][%d] = %v", i, c, v)
					}
					if !active[c] && v != 0 {
						t.Errorf("Yhat[%d][%d] = %v in a column no label activates", i, c, v)
					}
				}
			}
			unlabeled := len(res.EdgeOrder) - len(tc.labeled)
			if len(res.Null)+len(res.Pref) != unlabeled || len(res.Null) != tc.wantNull {
				t.Errorf("null %v, transferred %v; want %d null of %d", res.Null, res.Pref, tc.wantNull, unlabeled)
			}
			for id, got := range res.Pref {
				if got != planted {
					t.Errorf("edge %d received %v, want %v", id, got, planted)
				}
			}
			if !tc.wantIters(res.SolveIterations) {
				t.Errorf("SolveIterations = %d", res.SolveIterations)
			}
			if want := float64(len(res.Null)) / float64(max(unlabeled, 1)); res.NullRate() != want {
				t.Errorf("NullRate = %v, want %v", res.NullRate(), want)
			}
			if res.Rows != len(res.EdgeOrder) || res.NNZ < res.Rows {
				t.Errorf("Rows %d NNZ %d over %d edges", res.Rows, res.NNZ, len(res.EdgeOrder))
			}
		})
	}
}
