package l2r_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/l2r"
)

// TestOptionsCensus pins the settable values of the option structs a
// deployment configures: the engine's, the build's and ingest's, the
// three attachments', the build's region graph's, the stream's
// matcher's and the tracer's. A field that every caller leaves at
// its default is a branch nobody runs, so the list changes only when a
// new option has two non-test callers that want different values.
func TestOptionsCensus(t *testing.T) {
	match, _ := reflect.TypeFor[l2r.StreamConfig]().FieldByName("Match")
	regionOpts, _ := reflect.TypeFor[l2r.Options]().FieldByName("Region")
	for _, c := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeFor[l2r.ServeOptions](), []string{
			"CacheSize", "PathBackend", "WALDir", "CheckpointEvery", "WALSync", "Tracer",
		}},
		{reflect.TypeFor[l2r.Options](), []string{
			"Region", "SkipMapMatching", "LearnMaxPaths", "Workers", "PathBackend",
		}},
		{regionOpts.Type, []string{"MaxRegionSpan"}},
		{reflect.TypeFor[l2r.IngestOptions](), []string{"SkipMapMatching"}},
		{reflect.TypeFor[l2r.StreamConfig](), []string{
			"GapS", "Match", "MaxBatch", "FlushAge", "OnTrajectory",
		}},
		{match.Type, []string{"SigmaM"}},
		{reflect.TypeFor[l2r.QualityConfig](), []string{"SampleRate", "Ring", "Queue", "MaxPerSec"}},
		{reflect.TypeFor[l2r.MaintConfig](), []string{
			"DriftTV", "MinEvidence", "Interval", "CheckEvery",
		}},
		{reflect.TypeFor[l2r.TraceConfig](), []string{"Ring", "SlowThreshold"}},
	} {
		var got []string
		for i := range c.typ.NumField() {
			if f := c.typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s has options %v, pinned %v. ROADMAP's rule: a new option needs two non-test callers that want different values; delete one that no longer has them.",
				c.typ, got, c.want)
		}
	}
}

// TestInternalExportsHaveCallers fails when an exported top-level func
// or method declared under internal/ is named nowhere in the non-test
// code of this module or of benchmark/. Go lets nothing outside the
// module import internal/, so such a name serves only its own test.
// The scan parses and does not type-check: any identifier spelled like
// the name counts as a caller, so it under-reports, which a ratchet can
// afford.
func TestInternalExportsHaveCallers(t *testing.T) {
	// Names kept without a non-test caller, each with its reason:
	// accessors through which a test checks other code, and references
	// or fixtures that tests share.
	allow := map[string]string{
		"mapmatch.OnlineMatcher.StablePrefix":      "the online tests check the commit-prefix invariant through it",
		"region.Graph.Connected":                   "core and region tests check that ConnectBFS connects the region graph",
		"region.Edge.Other":                        "the adjacency tests hold the sorted adjacency to each edge's far end",
		"ch.Topology.NumArcs":                      "the ch tests and benchmarks size the skeleton with it",
		"ch.Topology.Rank":                         "the CCH tests check the contraction order through it",
		"ch.Topology.Graph":                        "the ch tests read the road a topology was built on",
		"ch.MetricQuery.Cost":                      "the ch tests hold query costs to Dijkstra without unpacking a path",
		"cluster.TrajectoryGraph.Vertex":           "the cluster tests check Algorithm 1's trajectory graph through it",
		"cluster.TrajectoryGraph.EdgePopularity":   "the cluster tests check Algorithm 1's popularities through it",
		"cluster.TrajectoryGraph.VertexPopularity": "the cluster tests check Algorithm 1's popularities through it",
		"core.Router.PrepareMetrics":               "the clone tests check the warm-path contract of PrepareMetricsTouched against it",
		"route.CHEngine.ResidentMetrics":           "the pass, exactness and Load tests count the shared table's metrics with it",
		"transfer.Result.NullRate":                 "the transfer tests check the share of null transfers through it",
		"transfer.AdjacencyDensity":                "BenchmarkTransfer reports the similarity graph's density with it (Fig. 9(b))",
		"pref.Learner.ConstructPath":               "the preference tests check Algorithm 2's path construction through it",
		"baseline.QueriesFromTrajectories":         "the baseline tests build the queries they score Dom and TRIP on",
		"baseline.Dom.DriverWeights":               "the baseline tests check Dom's trained weights through it",
		"baseline.TRIP.Ratio":                      "the baseline tests check TRIP's trained ratios through it",
		"sparse.Matrix.MulVec":                     "sparse.Matrix is the reference the block solver and the transduction are tested against",
		"sparse.Matrix.RowSums":                    "sparse.Matrix is the reference the block solver and the transduction are tested against",
		"sparse.Norm2":                             "the reference CG and the transduction equivalence tests measure residuals with it",
		"splice.TransitionGraph.Prob":              "the splice tests check the transition counts through it",
		"geo.Segment.DistToPoint":                  "the spatial and traj tests check candidate distances against it",
		"roadnet.GenerateGrid":                     "a grid fixture that the tests of a dozen packages share",
	}
	// Methods that the standard library calls through an interface.
	stdlib := map[string]bool{
		"Len": true, "Less": true, "Swap": true, // sort.Interface
		"String": true, "Error": true, "ServeHTTP": true, "Read": true, "Write": true,
	}

	fset := token.NewFileSet()
	refs := map[string]bool{}
	type decl struct{ key, name, pos string }
	var decls []decl
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != ".." && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel("..", filepath.Dir(path))
		rel = filepath.ToSlash(rel)
		declared := map[*ast.Ident]bool{}
		if pkg, ok := strings.CutPrefix(rel, "internal/"); ok {
			for _, x := range f.Decls {
				fd, ok := x.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				declared[fd.Name] = true
				key := pkg + "." + fd.Name.Name
				if fd.Recv != nil {
					if stdlib[fd.Name.Name] {
						continue
					}
					recv := fd.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					key = pkg + "." + types.ExprString(recv) + "." + fd.Name.Name
				}
				decls = append(decls, decl{key, fd.Name.Name, fset.Position(fd.Pos()).String()})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				refs[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		if !refs[d.name] && allow[d.key] == "" {
			t.Errorf("%s (%s) has no caller outside tests: delete it, or allowlist it with the reason it stays", d.key, d.pos)
		}
	}
	for key := range allow {
		if !seen[key] {
			t.Errorf("allowlisted %s is declared nowhere under internal/: drop its entry", key)
		}
	}
}
