package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/codec"
	"repro/internal/pref"
	"repro/internal/region"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// builtRouter builds a small router once for the persistence tests.
func builtRouter(tb testing.TB) *Router {
	tb.Helper()
	road := roadnet.Generate(roadnet.Tiny(17))
	sim := traj.NewSimulator(road, traj.D2Like(17, 400))
	ts := sim.Run()
	r, err := Build(road, ts, Options{SkipMapMatching: true})
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

func TestSaveLoadRoundTrip(t *testing.T) {
	r := builtRouter(t)
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// Structural equivalence.
	if loaded.rg.NumRegions() != r.rg.NumRegions() {
		t.Fatalf("regions %d != %d", loaded.rg.NumRegions(), r.rg.NumRegions())
	}
	if len(loaded.rg.Edges) != len(r.rg.Edges) {
		t.Fatalf("edges %d != %d", len(loaded.rg.Edges), len(r.rg.Edges))
	}
	if loaded.stats.TEdges != r.stats.TEdges || loaded.stats.BEdges != r.stats.BEdges {
		t.Fatalf("stats mismatch: %+v vs %+v", loaded.stats, r.stats)
	}
	requireSameFits(t, r, loaded)

	// Behavioral equivalence: identical routes for a spread of queries.
	n := r.road.NumVertices()
	for i := 0; i < 50; i++ {
		s := roadnet.VertexID((i * 13) % n)
		d := roadnet.VertexID((i*29 + 7) % n)
		want := r.Route(s, d)
		got := loaded.Route(s, d)
		if want.Category != got.Category {
			t.Fatalf("query %d: category %v != %v", i, got.Category, want.Category)
		}
		if len(want.Path) != len(got.Path) {
			t.Fatalf("query %d (%d->%d): path lengths %d != %d", i, s, d, len(got.Path), len(want.Path))
		}
		for j := range want.Path {
			if want.Path[j] != got.Path[j] {
				t.Fatalf("query %d: paths diverge at %d", i, j)
			}
		}
	}
}

// TestArtifactMetaRoundTrip covers the v2 envelope metadata: the name,
// build-options summary and save generation travel with the artifact,
// and every Save advances the generation.
func TestArtifactMetaRoundTrip(t *testing.T) {
	r := builtRouter(t)
	r.SetName("beijing")
	if got := r.Meta().Generation; got != 0 {
		t.Fatalf("generation before first save = %d, want 0", got)
	}
	if bi := r.Meta().Build; bi.PathBackend != "dijkstra" || bi.ClusterMethod != "modularity" || !bi.SkipMapMatching {
		t.Fatalf("build info not recorded: %+v", bi)
	}

	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if got := r.Meta().Generation; got != 1 {
		t.Fatalf("generation after save = %d, want 1", got)
	}

	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	meta := loaded.Meta()
	if meta.Name != "beijing" {
		t.Fatalf("loaded name = %q", meta.Name)
	}
	if meta.Generation != 1 {
		t.Fatalf("loaded generation = %d, want 1", meta.Generation)
	}
	if meta.SavedUnixNano == 0 {
		t.Fatal("save timestamp not recorded")
	}
	if meta.Build != r.Meta().Build {
		t.Fatalf("build info did not round-trip: %+v vs %+v", meta.Build, r.Meta().Build)
	}

	// A rebuilt-and-resaved lineage observably advances: the hot-reload
	// watcher surfaces exactly this bump.
	var buf2 bytes.Buffer
	if err := loaded.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	reloaded, err := Load(bytes.NewReader(buf2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := reloaded.Meta().Generation; got != 2 {
		t.Fatalf("generation after second save = %d, want 2", got)
	}
}

// requireSameFits fails unless got answers LearnedPreference like want
// on every edge ID (and on the two IDs just outside the range) and has
// the same model digest: fitted preferences, similarity bits, sample
// sizes and 220 routes.
func requireSameFits(t *testing.T, want, got *Router) {
	t.Helper()
	if len(got.rg.Edges) != len(want.rg.Edges) {
		t.Fatalf("edges %d != %d", len(got.rg.Edges), len(want.rg.Edges))
	}
	fitted := 0
	for id := -1; id <= len(want.rg.Edges); id++ {
		wr, wok := want.LearnedPreference(id)
		gr, gok := got.LearnedPreference(id)
		if wr != gr || wok != gok {
			t.Fatalf("edge %d: learned preference %+v %v, want %+v %v", id, gr, gok, wr, wok)
		}
		if wok {
			fitted++
		}
	}
	if fitted == 0 {
		t.Fatal("no edge carries a learned preference; the comparison proves nothing")
	}
	wl, wr := modelDigest(want.Clone())
	gl, gr := modelDigest(got.Clone())
	if wl != gl || wr != gr {
		t.Fatalf("model digest learned %#x routes %#x, want %#x %#x", gl, gr, wl, wr)
	}
}

// TestLoadV1Artifact pins backward compatibility: artifacts written by
// the v1 (pre-metadata) envelope still load — Meta just stays zero.
func TestLoadV1Artifact(t *testing.T) {
	r := builtRouter(t)

	// The v1 envelope layout, reconstructed field-for-field. Gob
	// matches fields by name, so the v2 reader decodes this with Meta
	// left at its zero value.
	type envelopeV1 struct {
		RoadTSV     []byte
		Region      *region.Snapshot
		Learned     map[int]pref.Result
		RegionPrefs map[int]pref.Result
		Stats       Stats
		IndexCellM  float64
	}
	var road bytes.Buffer
	if err := roadnet.WriteTSV(&road, r.road); err != nil {
		t.Fatal(err)
	}
	env := envelopeV1{
		RoadTSV:     road.Bytes(),
		Region:      r.rg.Snapshot(),
		Learned:     r.learnedPrefs(),
		RegionPrefs: r.regionPrefs,
		Stats:       r.stats,
		IndexCellM:  r.idx.CellSize(),
	}
	var buf bytes.Buffer
	if err := codec.WriteFrame(&buf, artifactVersionV1, &env); err != nil {
		t.Fatal(err)
	}

	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("v1 artifact no longer loads: %v", err)
	}
	if loaded.Meta() != (ArtifactMeta{}) {
		t.Fatalf("v1 artifact loaded with non-zero meta: %+v", loaded.Meta())
	}
	if loaded.rg.NumRegions() != r.rg.NumRegions() {
		t.Fatalf("regions %d != %d", loaded.rg.NumRegions(), r.rg.NumRegions())
	}
	s, d := roadnet.VertexID(3), roadnet.VertexID(40)
	if !samePathCore(loaded.Route(s, d).Path, r.Route(s, d).Path) {
		t.Fatal("v1-loaded router answers differently")
	}
	requireSameFits(t, r, loaded)
}

// handBuiltV2 encodes r's state as a v2 artifact without going through
// Save, with learned as the envelope's Learned map.
func handBuiltV2(t *testing.T, r *Router, learned map[int]pref.Result) []byte {
	t.Helper()
	var road bytes.Buffer
	if err := roadnet.WriteTSV(&road, r.road); err != nil {
		t.Fatal(err)
	}
	env := envelope{
		Meta:        r.meta,
		RoadTSV:     road.Bytes(),
		Region:      r.rg.Snapshot(),
		Learned:     learned,
		RegionPrefs: r.regionPrefs,
		Stats:       r.stats,
		IndexCellM:  r.idx.CellSize(),
	}
	var buf bytes.Buffer
	if err := codec.WriteFrame(&buf, ArtifactVersion, &env); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadScattersLearnedMap: the artifact keeps every fit in the
// envelope's Learned map while a router keeps them on its region edges.
// A v2 envelope built by hand around such a map loads to the router it
// was taken from, Save writes exactly that envelope (same size: the
// fits did not also land in the region snapshot's image), and a key
// that names no edge — input from outside the program — is an error,
// not a router.
func TestLoadScattersLearnedMap(t *testing.T) {
	r := builtRouter(t)
	learned := r.learnedPrefs()
	art := handBuiltV2(t, r, learned)
	loaded, err := Load(bytes.NewReader(art))
	if err != nil {
		t.Fatal(err)
	}
	requireSameFits(t, r, loaded)

	var saved bytes.Buffer
	if err := r.IngestClone().Save(&saved); err != nil {
		t.Fatal(err)
	}
	// Save stamps a generation and a timestamp the hand-built envelope
	// leaves at zero: a handful of bytes, against the ~9 bytes a single
	// leaked fit would add per edge.
	if d := saved.Len() - len(art); d < 0 || d > 16 {
		t.Fatalf("Save wrote %d bytes, the hand-built envelope %d", saved.Len(), len(art))
	}

	for _, bad := range []int{len(r.rg.Edges), len(r.rg.Edges) + 7, -1} {
		learned[bad] = pref.Result{Similarity: 1, PathsUsed: 1}
		got, err := Load(bytes.NewReader(handBuiltV2(t, r, learned)))
		delete(learned, bad)
		if err == nil || got != nil {
			t.Fatalf("Learned key %d (of %d edges): Load returned router %v, err %v; want an error", bad, len(r.rg.Edges), got != nil, err)
		}
	}
}

func samePathCore(a, b roadnet.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestLoadCorruptArtifact(t *testing.T) {
	r := builtRouter(t)
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(b)/2] ^= 0xFF
	if _, err := Load(bytes.NewReader(b)); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestLoadTruncatedArtifact(t *testing.T) {
	r := builtRouter(t)
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := Load(bytes.NewReader(b[:len(b)*2/3])); err == nil {
		t.Fatal("truncated artifact loaded without error")
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("this is not an artifact at all"))); !errors.Is(err, codec.ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestSaveIsDeterministic(t *testing.T) {
	r := builtRouter(t)
	var a, b bytes.Buffer
	if err := r.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.Save(&b); err != nil {
		t.Fatal(err)
	}
	// Gob encoding of maps is not order-deterministic in general, but
	// both artifacts must at least load back to equivalent routers.
	ra, err := Load(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Load(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if ra.rg.NumRegions() != rb.rg.NumRegions() {
		t.Fatal("two saves of the same router load to different systems")
	}
	requireSameFits(t, ra, rb)
}
