package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"

	"repro/internal/ch"
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
		IndexCellM:  indexCellM,
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

// learnedPrefs gathers every region edge's fit into the v1/v2
// envelope's edge ID -> result map: the fits live on the edges, those
// layouts kept them in a map of their own.
func (r *Router) learnedPrefs() map[int]pref.Result {
	out := make(map[int]pref.Result, len(r.rg.Edges))
	for _, e := range r.rg.Edges {
		if fit, ok := e.Fit(); ok {
			out[e.ID] = fit
		}
	}
	return out
}

// handBuiltV2 is the v2 writer Save was before artifact v3, kept as the
// test reference v3 is held to: r's state as one gob envelope, with
// learned as the envelope's Learned map.
func handBuiltV2(t testing.TB, r *Router, learned map[int]pref.Result) []byte {
	t.Helper()
	return encodeV2(t, r, learned, nil)
}

// encodeV2 is handBuiltV2 with a hook that may alter the envelope
// before it is written — how the tests build bad artifacts.
func encodeV2(t testing.TB, r *Router, learned map[int]pref.Result, alter func(*envelope)) []byte {
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
		IndexCellM:  indexCellM,
	}
	if alter != nil {
		alter(&env)
	}
	var buf bytes.Buffer
	if err := codec.WriteFrame(&buf, artifactVersionV2, &env); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadV3LegacyMeta: every v3 artifact saved before the pipeline's
// index cell, confidence gate and matcher settings became constants
// carries them in its gob metadata — BuildInfo.MinConfidence,
// IndexCellM and MapMatch, and metaSection.IndexCellM — at their
// defaults. Such an artifact still loads, keeps the remaining
// Meta().Build fields, and routes the 220 digest ODs and ingests raw
// GPS exactly like the same router saved today. The matcher settings
// are written both as the zero value old artifacts hold and spelled
// out, so the decoder skips a non-empty struct too.
func TestLoadV3LegacyMeta(t *testing.T) {
	type mapMatchConfig struct {
		CandidateRadiusM, SigmaM, BetaM float64
		MaxCandidates                   int
		MinSpacingM                     float64
		RouteFactor, RouteSlackM        float64
	}
	type buildInfo struct {
		PathBackend, ClusterMethod string
		SkipMapMatching            bool
		MinConfidence              float64
		LearnMaxPaths              int
		IndexCellM                 float64
		Region                     region.Options
		MapMatch                   mapMatchConfig
	}
	type artifactMeta struct {
		Name          string
		Generation    uint64
		SavedUnixNano int64
		Build         buildInfo
	}
	type legacyMetaSection struct {
		Meta       artifactMeta
		Stats      Stats
		IndexCellM float64
	}

	road := roadnet.Generate(roadnet.Tiny(17))
	ts := traj.NewSimulator(road, traj.D2Like(17, 500)).Run()
	cut := len(ts) * 8 / 10
	r, err := Build(road, ts[:cut], Options{SkipMapMatching: true, LearnMaxPaths: 3, Region: region.Options{MaxRegionSpan: 4}})
	if err != nil {
		t.Fatal(err)
	}
	r.SetName("legacy")
	parts := artifactParts(t, saveArtifact(t, r))
	want, err := Load(bytes.NewReader(joinParts(t, parts)))
	if err != nil {
		t.Fatal(err)
	}
	m := want.Meta()
	if m.Build.LearnMaxPaths != 3 || m.Build.Region.MaxRegionSpan != 4 || !m.Build.SkipMapMatching {
		t.Fatalf("saved build info %+v lost an option", m.Build)
	}
	wantLearned, wantRoutes := modelDigest(want)
	wantIngested := want.IngestClone()
	if st := wantIngested.Ingest(ts[cut:], IngestOptions{}); st.Relearned == 0 {
		t.Fatal("the raw-GPS ingest relearned nothing")
	}
	wantIngestedLearned, wantIngestedRoutes := modelDigest(wantIngested)

	for _, mm := range []mapMatchConfig{{}, {60, 10, 60, 6, 30, 6, 800}} {
		legacy := legacyMetaSection{
			Meta: artifactMeta{Name: m.Name, Generation: m.Generation, SavedUnixNano: m.SavedUnixNano, Build: buildInfo{
				PathBackend: m.Build.PathBackend, ClusterMethod: m.Build.ClusterMethod,
				SkipMapMatching: m.Build.SkipMapMatching, MinConfidence: 0.7,
				LearnMaxPaths: m.Build.LearnMaxPaths, IndexCellM: 300,
				Region: m.Build.Region, MapMatch: mm,
			}},
			Stats:      want.Stats(),
			IndexCellM: 300,
		}
		var meta bytes.Buffer
		if err := gob.NewEncoder(&meta).Encode(&legacy); err != nil {
			t.Fatal(err)
		}
		old := append([][]byte(nil), parts...)
		old[partMeta] = meta.Bytes()
		got, err := Load(bytes.NewReader(joinParts(t, old)))
		if err != nil {
			t.Fatalf("matcher settings %+v: a legacy v3 artifact no longer loads: %v", mm, err)
		}
		if got.Meta() != m || got.Stats() != want.Stats() {
			t.Fatalf("matcher settings %+v: loaded meta %+v stats %+v, want %+v %+v", mm, got.Meta(), got.Stats(), m, want.Stats())
		}
		if learned, routes := modelDigest(got); learned != wantLearned || routes != wantRoutes {
			t.Fatalf("matcher settings %+v: legacy artifact digests %#x %#x, today's %#x %#x", mm, learned, routes, wantLearned, wantRoutes)
		}
		ingested := got.IngestClone()
		ingested.Ingest(ts[cut:], IngestOptions{})
		if learned, routes := modelDigest(ingested); learned != wantIngestedLearned || routes != wantIngestedRoutes {
			t.Fatalf("matcher settings %+v: after a raw-GPS ingest, legacy artifact digests %#x %#x, today's %#x %#x", mm, learned, routes, wantIngestedLearned, wantIngestedRoutes)
		}
	}
}

// TestLoadScattersLearnedMap: the v1/v2 envelope keeps every fit in its
// Learned map while a router keeps them on its region edges. A v2
// envelope built by hand around such a map loads to the router it was
// taken from; Save writes the fits to the preference section and
// nowhere else (the router loaded from the envelope saves to the bytes
// the original saves to outside the metadata, and clearing every fit
// changes the preference section alone); and a key that names no edge —
// input from outside the program — is an error, not a router.
func TestLoadScattersLearnedMap(t *testing.T) {
	r := builtRouter(t)
	learned := r.learnedPrefs()
	art := handBuiltV2(t, r, learned)
	loaded, err := Load(bytes.NewReader(art))
	if err != nil {
		t.Fatal(err)
	}
	requireSameFits(t, r, loaded)

	saved := artifactParts(t, saveArtifact(t, r.IngestClone()))
	requireSameParts(t, saved, artifactParts(t, saveArtifact(t, loaded)))
	bare := r.IngestClone()
	for id := range bare.rg.Edges {
		bare.rg.EdgeForUpdate(id).SetFit(pref.Result{}, false)
	}
	for i, part := range artifactParts(t, saveArtifact(t, bare)) {
		if i != partMeta && bytes.Equal(part, saved[i]) == (i == partPrefs) {
			t.Fatalf("clearing the fits changed artifact part %d (changed: %v); only the preference section may change", i, !bytes.Equal(part, saved[i]))
		}
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

// The parts of a v3 payload, as artifactParts splits it: the road
// identity, then the five sections.
const (
	partRoadID = iota
	partRoad
	partRegion
	partPrefs
	partMeta
	partOrder
	numParts
)

// artifactParts splits a v3 artifact into its parts.
func artifactParts(t testing.TB, art []byte) [][]byte {
	t.Helper()
	_, payload, err := codec.ReadFrameBytes(bytes.NewReader(art), ArtifactVersion)
	if err != nil {
		t.Fatal(err)
	}
	d := codec.NewDec(payload)
	d.Uint64()
	parts := [][]byte{payload[:8]}
	for len(parts) < numParts {
		parts = append(parts, d.Section())
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	return parts
}

// joinParts is artifactParts' inverse: the parts framed as a v3
// artifact.
func joinParts(t testing.TB, parts [][]byte) []byte {
	t.Helper()
	e := codec.Enc{B: append([]byte(nil), parts[partRoadID]...)}
	for _, part := range parts[1:] {
		mark := e.Begin()
		e.Write(part)
		e.End(mark)
	}
	var buf bytes.Buffer
	if err := codec.WriteFrameBytes(&buf, ArtifactVersion, e.B); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireSameParts fails unless two artifacts' parts are byte-equal
// outside the metadata section, which carries the save time.
func requireSameParts(t testing.TB, a, b [][]byte) {
	t.Helper()
	for i := range a {
		if i != partMeta && !bytes.Equal(a[i], b[i]) {
			t.Fatalf("artifact part %d differs: %d bytes against %d", i, len(a[i]), len(b[i]))
		}
	}
}

func saveArtifact(t testing.TB, r *Router) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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

// TestSaveIsDeterministic: two clones at the same generation save to
// identical bytes outside the metadata section (which carries the save
// time) — maps are written in key order — and both load to the router
// they were saved from.
func TestSaveIsDeterministic(t *testing.T) {
	r := builtRouter(t)
	r.EnableCH(ch.Config{})
	a, b := saveArtifact(t, r.Clone()), saveArtifact(t, r.Clone())
	requireSameParts(t, artifactParts(t, a), artifactParts(t, b))
	for _, art := range [][]byte{a, b} {
		loaded, err := Load(bytes.NewReader(art))
		if err != nil {
			t.Fatal(err)
		}
		requireSameFits(t, r, loaded)
	}
}
