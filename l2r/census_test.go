package l2r_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
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
		{reflect.TypeFor[l2r.QualityConfig](), []string{"SampleRate", "Ring"}},
		{reflect.TypeFor[l2r.MaintConfig](), []string{"DriftTV", "MinEvidence", "Interval"}},
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

// TestSettingsHaveSetters is the census as a scan: every exported
// field of an exported *Config or *Options struct under internal/, and
// of pref.Learner, must be set by non-test code of this module or of
// benchmark/ outside the field's own package — named as a composite
// literal's key or in an assignment's target — or be allowlisted with
// the production callers that want different values. A field only its
// package's constructor or its tests set is a constant in disguise.
// The scan matches field names, not types, so a name another struct
// shares can hide a field: it under-reports, which a ratchet can afford.
func TestSettingsHaveSetters(t *testing.T) {
	// Fields set only inside their package, each with the callers that
	// want different values.
	sim := "D1Like and D2Like set it differently: the D1 (vehicle) and D2 (taxi) presets every world is simulated from"
	allow := map[string]string{
		"traj.SimConfig.Trips":        "D1Like and D2Like take it from their callers: worldgen's scales, exp's worlds and the commands' -trips flags ask for different counts",
		"traj.SimConfig.HubRadiusM":   sim,
		"traj.SimConfig.UniformShare": sim,
		"traj.SimConfig.MinTripM":     sim,
		"traj.SimConfig.HorizonSec":   sim,
		"traj.SimConfig.ZoneGridM":    sim,
		"traj.SimConfig.PeakShare":    sim,
	}
	type field struct{ key, dir, name, pos string }
	var fields []field
	setIn := map[string]map[string]bool{} // field name -> directories setting it
	set := func(name, dir string) {
		if setIn[name] == nil {
			setIn[name] = map[string]bool{}
		}
		setIn[name][dir] = true
	}
	nonTestFiles(t, func(dir string, f *ast.File, fset *token.FileSet) {
		if pkg, ok := strings.CutPrefix(dir, "internal/"); ok {
			for _, x := range f.Decls {
				gd, ok := x.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					st, ok := ts.Type.(*ast.StructType)
					name := ts.Name.Name
					if !ok || !ts.Name.IsExported() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || pkg+"."+name == "pref.Learner") {
						continue
					}
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							if id.IsExported() {
								fields = append(fields, field{pkg + "." + name + "." + id.Name, dir, id.Name, fset.Position(id.Pos()).String()})
							}
						}
					}
				}
			}
		}
		// target records every field an assignment's target selects:
		// opt.Region.MaxRegionSpan = 4 sets Region's MaxRegionSpan.
		target := func(lhs ast.Expr) {
			ast.Inspect(lhs, func(n ast.Node) bool {
				if s, ok := n.(*ast.SelectorExpr); ok {
					set(s.Sel.Name, dir)
				}
				return true
			})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					set(id.Name, dir)
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					target(lhs)
				}
			case *ast.IncDecStmt:
				target(n.X)
			}
			return true
		})
	})
	if len(fields) == 0 {
		t.Fatal("found no option fields under internal/; the scan is broken")
	}
	seen := map[string]bool{}
	for _, fl := range fields {
		seen[fl.key] = true
		outside := len(setIn[fl.name]) > 1 || len(setIn[fl.name]) == 1 && !setIn[fl.name][fl.dir]
		switch {
		case !outside && allow[fl.key] == "":
			t.Errorf("%s (%s) is set by no production code outside its package: make it an unexported constant at its default, or allowlist it with the callers that want different values", fl.key, fl.pos)
		case outside && allow[fl.key] != "":
			t.Errorf("allowlisted %s is set outside its package: drop its entry", fl.key)
		}
	}
	for key := range allow {
		if !seen[key] {
			t.Errorf("allowlisted %s is declared nowhere under internal/: drop its entry", key)
		}
	}
	t.Logf("%d settable fields, %d of them allowlisted", len(fields), len(allow))
}

// nonTestFiles parses every non-test Go file of this module and of
// benchmark/ (which imports internal/ through its replace directive)
// and hands each to visit with its directory relative to the module
// root, in slash form.
func nonTestFiles(t *testing.T, visit func(dir string, f *ast.File, fset *token.FileSet)) {
	t.Helper()
	fset := token.NewFileSet()
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
		visit(filepath.ToSlash(rel), f, fset)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// imports maps each package name f can qualify an identifier with to
// the import path it names.
func imports(f *ast.File) map[string]string {
	m := map[string]string{}
	for _, is := range f.Imports {
		path, _ := strconv.Unquote(is.Path.Value)
		name := path[strings.LastIndexByte(path, '/')+1:]
		if is.Name != nil {
			name = is.Name.Name
		}
		m[name] = path
	}
	return m
}

// TestInternalExportsHaveCallers fails when an exported top-level func
// or method declared under internal/ has no caller in the non-test
// code of this module or of benchmark/. Go lets nothing outside the
// module import internal/, so such a name serves only its own test.
// The scan parses and does not type-check, so it counts only what can
// call the name: for a function, pkg.Name through an import of its
// package, or a bare Name inside the package; for a method, a .Name
// selector on anything but a package. A method whose name another
// type's method shares still under-reports, which a ratchet can afford.
func TestInternalExportsHaveCallers(t *testing.T) {
	// Names kept without a non-test caller, each with its reason:
	// accessors through which a test checks other code, and references
	// or fixtures that tests share.
	allow := map[string]string{
		"mapmatch.OnlineMatcher.StablePrefix":      "the online tests check the commit-prefix invariant through it",
		"region.Graph.Connected":                   "core and region tests check that ConnectBFS connects the region graph",
		"region.Edge.Other":                        "the adjacency tests hold the sorted adjacency to each edge's far end",
		"region.Graph.TransferCounts":              "the test-only v2 artifact writer (core's handBuiltV2) gob-encodes the raw transfer-center lists and visit counts through it",
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
		"sparse.New":                               "sparse.Matrix is the reference the block solver (sparse's tests) and the transduction (transfer's equivalence_test.go) are tested against; New assembles it",
		"sparse.Matrix.MulVec":                     "sparse.Matrix is the reference the block solver and the transduction are tested against",
		"sparse.Matrix.RowSums":                    "sparse.Matrix is the reference the block solver and the transduction are tested against",
		"sparse.Norm2":                             "the reference CG and the transduction equivalence tests measure residuals with it",
		"splice.TransitionGraph.Prob":              "the splice tests check the transition counts through it",
		"geo.Segment.DistToPoint":                  "the spatial and traj tests check candidate distances against it",
		"roadnet.GenerateGrid":                     "a grid fixture that the tests of a dozen packages share",
		"maint.Maintainer.TriggerNow":              "the maint tests (TestMaintAccuracyFloor, TestMaintCrashEquivalence, TestMaintConvergenceMatchesRebuild and the rest of maint_test.go) drive a rebuild at a known point with it",
		"quality.Observer.Drain":                   "TestOfferAccounting, TestObserverEndToEnd, TestDebugQualityEndpoint, TestQualitySoakConcurrent and obs's TestDisabledRouteReadsNoClock wait with it for the scorer to resolve every sample",
		"worldgen.Fingerprint":                     "TestSeedStability and TestBenchScaleMatchesHistoricalWorld compare generated graphs with it",
	}
	// Methods that the standard library calls through an interface.
	stdlib := map[string]bool{
		"Len": true, "Less": true, "Swap": true, // sort.Interface
		"String": true, "Error": true, "ServeHTTP": true, "Read": true, "Write": true,
	}

	qualified := map[string]bool{} // "internal/pkg.Name" named through an import
	bare := map[string]bool{}      // "dir.Name" named unqualified in dir
	methods := map[string]bool{}   // Name selected on a value or a type
	type decl struct{ key, ref, pos string }
	var decls []decl
	nonTestFiles(t, func(dir string, f *ast.File, fset *token.FileSet) {
		declared := map[*ast.Ident]bool{}
		if pkg, ok := strings.CutPrefix(dir, "internal/"); ok {
			for _, x := range f.Decls {
				fd, ok := x.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				declared[fd.Name] = true
				key, ref := pkg+"."+fd.Name.Name, dir+"."+fd.Name.Name
				if fd.Recv != nil {
					if stdlib[fd.Name.Name] {
						continue
					}
					recv := fd.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					key, ref = pkg+"."+types.ExprString(recv)+"."+fd.Name.Name, "."+fd.Name.Name
				}
				decls = append(decls, decl{key, ref, fset.Position(fd.Pos()).String()})
			}
		}
		pkgs := imports(f)
		sel := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sel[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && pkgs[x.Name] != "" {
					qualified[strings.TrimPrefix(pkgs[x.Name], "repro/")+"."+n.Sel.Name] = true
				} else {
					methods[n.Sel.Name] = true
				}
			case *ast.Ident:
				if !sel[n] && !declared[n] {
					bare[dir+"."+n.Name] = true
				}
			}
			return true
		})
	})
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		called := qualified[d.ref] || bare[d.ref] || strings.HasPrefix(d.ref, ".") && methods[d.ref[1:]]
		if !called && allow[d.key] == "" {
			t.Errorf("%s (%s) has no caller outside tests: delete it, or allowlist it with the reason it stays", d.key, d.pos)
		}
	}
	for key := range allow {
		if !seen[key] {
			t.Errorf("allowlisted %s is declared nowhere under internal/: drop its entry", key)
		}
	}
}

// TestCINamesExistingTests fails when a `go test` step in CI's workflow
// names, in its -run pattern or as its -fuzz target, a test that no
// listed package declares: `go test -run` with a pattern that matches
// nothing passes without running anything. Each alternative of a -run
// pattern (anchors dropped) and each -fuzz target must be the start of
// some Test or Fuzz function's name in one of the packages the step
// lists.
func TestCINamesExistingTests(t *testing.T) {
	workflow, err := os.ReadFile("../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string][]string{} // package directory -> its Test/Fuzz functions
	testsIn := func(dir string) []string {
		if names, ok := declared[dir]; ok {
			return names
		}
		files, _ := filepath.Glob(filepath.Join("..", dir, "*_test.go"))
		var names []string
		for _, file := range files {
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil &&
					(strings.HasPrefix(fd.Name.Name, "Test") || strings.HasPrefix(fd.Name.Name, "Fuzz")) {
					names = append(names, fd.Name.Name)
				}
			}
		}
		declared[dir] = names
		return names
	}
	runFlag := regexp.MustCompile(`-run ('[^']*'|\S+)`)
	fuzzFlag := regexp.MustCompile(`-fuzz ('[^']*'|\S+)`)
	checked := 0
	for _, line := range strings.Split(string(workflow), "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok {
			continue
		}
		var pkgs, names []string
		for _, f := range strings.Fields(cmd) {
			if f == "." || strings.HasPrefix(f, "./") {
				pkgs = append(pkgs, f)
			}
		}
		if m := runFlag.FindStringSubmatch(cmd); m != nil {
			names = append(names, strings.Split(strings.Trim(m[1], "'"), "|")...)
		}
		if m := fuzzFlag.FindStringSubmatch(cmd); m != nil {
			names = append(names, strings.Trim(m[1], "'"))
		}
		for _, name := range names {
			if name = strings.Trim(name, "^$"); name == "" {
				continue
			}
			checked++
			found := false
			for _, pkg := range pkgs {
				found = found || slices.ContainsFunc(testsIn(pkg), func(fn string) bool { return strings.HasPrefix(fn, name) })
			}
			if !found {
				t.Errorf("ci.yml runs %q in %v, which declare no test of that name:\n\t%s", name, pkgs, strings.TrimSpace(line))
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no test names in ci.yml; the scan is broken")
	}
	t.Logf("%d test names in ci.yml checked", checked)
}
