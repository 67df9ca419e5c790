package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/geo"
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

// TestArtifactMetaRoundTrip covers the artifact metadata: the name,
// build-options summary and save generation travel with the artifact,
// and every Save advances the generation.
func TestArtifactMetaRoundTrip(t *testing.T) {
	r := builtRouter(t)
	r.SetName("beijing")
	if got := r.Meta().Generation; got != 0 {
		t.Fatalf("generation before first save = %d, want 0", got)
	}
	if bi := r.Meta().Build; bi.ClusterMethod != "modularity" || !bi.SkipMapMatching {
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

// TestLoadRefusesOlderArtifacts: Load reads only artifact v5. A v1 or
// v2 frame — the gob envelope Save wrote before v3 —, a v3 frame — its
// road as rounded text — and a v4 frame — every stored path a walk of
// its own — are refused with codec.ErrBadVersion naming their version,
// and no router, whatever the payload holds.
func TestLoadRefusesOlderArtifacts(t *testing.T) {
	r := builtRouter(t)
	older := map[uint16][]byte{
		artifactVersionV1: encodeEnvelope(t, artifactVersionV1, r, r.learnedPrefs()),
		artifactVersionV2: encodeEnvelope(t, artifactVersionV2, r, r.learnedPrefs()),
		artifactVersionV3: handBuiltV3(t, handBuiltV4(t, saveArtifact(t, r.Clone()))),
		artifactVersionV4: handBuiltV4(t, saveArtifact(t, r.Clone())),
	}
	for version, art := range older {
		got, err := Load(bytes.NewReader(art))
		if !errors.Is(err, codec.ErrBadVersion) || got != nil || !strings.Contains(err.Error(), fmt.Sprintf("artifact v%d,", version)) {
			t.Fatalf("v%d artifact: Load returned router %v, err %v; want ErrBadVersion naming v%d", version, got != nil, err, version)
		}
	}
}

// learnedPrefs gathers every region edge's fit into the v1/v2
// envelope's edge ID -> result map: the fits live on the edges, those
// layouts kept them in a map of their own.
func (r *Router) learnedPrefs() map[int]pref.Result {
	out := make(map[int]pref.Result, len(r.rg.Edges))
	for _, e := range r.rg.Edges {
		if fit, ok := e.Fit(); ok {
			out[int(e.ID)] = fit
		}
	}
	return out
}

// The gob envelope versions Save wrote before artifact v3.
const (
	artifactVersionV1 uint16 = 1
	artifactVersionV2 uint16 = 2
)

// envelope is the gob payload of a v1/v2 artifact: the road network as
// its TSV serialization, the region graph's gob image, and the fits in a
// Learned map of their own. A v1 envelope had no Meta.
type envelope struct {
	Meta        ArtifactMeta
	RoadTSV     []byte
	Region      *Snapshot
	Learned     map[int]pref.Result
	RegionPrefs map[int]pref.Result
	Stats       Stats
	IndexCellM  float64 // always the default; the reader ignores it
}

// Snapshot is the region graph's gob image in the v1/v2 envelope, named
// and laid out as the region package's type it was, so gob writes the
// bytes that type wrote.
type Snapshot struct {
	Regions         []cluster.Region
	Edges           []region.Edge
	Centroids       []geo.Point
	Inner           [][]region.InnerPath
	TransferCenters [][]roadnet.VertexID
	TCCounts        []map[roadnet.VertexID]int
	TopTypes        [][]roadnet.RoadType
}

// snapshotOf is g's gob image.
func snapshotOf(g *region.Graph) *Snapshot {
	s := &Snapshot{Regions: g.Regions, Edges: make([]region.Edge, len(g.Edges))}
	for i, e := range g.Edges {
		s.Edges[i] = *e
	}
	for r := range g.NumRegions() {
		centers, counts := g.TransferCounts(r)
		s.Centroids = append(s.Centroids, g.Centroid(r))
		s.Inner = append(s.Inner, g.InnerPaths(r))
		s.TransferCenters = append(s.TransferCenters, centers)
		s.TCCounts = append(s.TCCounts, counts)
		s.TopTypes = append(s.TopTypes, g.TopRoadTypes(r))
	}
	return s
}

// handBuiltV2 is the v2 writer Save was before artifact v3, kept for
// the size bound TestArtifactV5MatchesV4Reference holds v5 to: r's
// state as one gob envelope, with learned as the envelope's Learned map.
func handBuiltV2(t testing.TB, r *Router, learned map[int]pref.Result) []byte {
	t.Helper()
	return encodeEnvelope(t, artifactVersionV2, r, learned)
}

// encodeEnvelope is handBuiltV2 for any frame version.
func encodeEnvelope(t testing.TB, version uint16, r *Router, learned map[int]pref.Result) []byte {
	t.Helper()
	var road bytes.Buffer
	if err := roadnet.WriteTSV(&road, r.road); err != nil {
		t.Fatal(err)
	}
	env := envelope{
		Meta:        r.meta,
		RoadTSV:     road.Bytes(),
		Region:      snapshotOf(r.rg),
		Learned:     learned,
		RegionPrefs: r.regionPrefs,
		Stats:       r.stats,
		IndexCellM:  indexCellM,
	}
	var payload, buf bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&env); err != nil {
		t.Fatal(err)
	}
	if err := codec.WriteFrameBytes(&buf, version, payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// artifactVersionV3 is the version of the artifact Save wrote before
// v4: today's sections, the road as roadnet.WriteTSV's text.
const artifactVersionV3 uint16 = 3

// handBuiltV3 is the v3 writer Save was before artifact v4: the parts
// of art, a v4 or v5 artifact, with the road section as
// roadnet.WriteTSV's text and the road identity its FNV-64a.
func handBuiltV3(t testing.TB, art []byte) []byte {
	t.Helper()
	parts := artifactParts(t, art)
	road, err := roadnet.Decode(parts[partRoad])
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := roadnet.WriteTSV(&text, road); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(text.Bytes())
	parts[partRoadID] = binary.BigEndian.AppendUint64(nil, h.Sum64())
	parts[partRoad] = text.Bytes()
	return frameParts(t, artifactVersionV3, parts)
}

// loadV3 is the v3 road reader Load was before it read the road in
// binary, kept as the reference TestArtifactV4MatchesV3Reference holds
// the binary road to. art is handBuiltV3 of a v5 artifact: it reads the
// road's text (sectionFromTSV) and decodes the other sections as Load
// does.
func loadV3(t testing.TB, art []byte) *Router {
	t.Helper()
	parts := artifactParts(t, art)
	parts[partRoad] = sectionFromTSV(t, parts[partRoad])
	r, err := Load(bytes.NewReader(joinParts(t, parts)))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// sectionFromTSV reads a road network as WriteTSV prints it — lines
// split at tabs, numbers read by strconv — and lays it out as a road
// section, as roadnet's io.go describes it.
func sectionFromTSV(t testing.TB, text []byte) []byte {
	t.Helper()
	var e codec.Enc
	var verts, edges int
	float := func(f string) {
		x, err := strconv.ParseFloat(f, 64)
		if err != nil {
			t.Fatal(err)
		}
		e.B = binary.LittleEndian.AppendUint64(e.B, math.Float64bits(x))
	}
	lines := strings.Split(strings.TrimSpace(string(text)), "\n")
	for _, line := range lines {
		if f := strings.Split(line, "\t"); f[0] == "V" {
			float(f[2])
			float(f[3])
			verts++
		}
	}
	sec := append(binary.AppendUvarint(nil, uint64(verts)), e.B...)
	e.B = nil
	from := 0
	for _, line := range lines {
		if f := strings.Split(line, "\t"); f[0] == "E" {
			v, err := strconv.Atoi(f[1])
			to, err2 := strconv.Atoi(f[2])
			typ, err3 := strconv.Atoi(f[6])
			if err := errors.Join(err, err2, err3); err != nil {
				t.Fatal(err)
			}
			e.Int(v - from)
			e.Int(to - v)
			from = v
			float(f[3])
			float(f[4])
			float(f[5])
			e.Byte(byte(typ))
			edges++
		}
	}
	return append(binary.AppendUvarint(sec, uint64(edges)), e.B...)
}

// TestLoadV3LegacyMeta: every v3 artifact saved before the pipeline's
// index cell, confidence gate, matcher settings, road-type set size and
// transfer-center cap became constants carries them in its gob
// metadata — BuildInfo.MinConfidence, IndexCellM and MapMatch,
// BuildInfo.Region.TopK and MaxTransferCenters, and
// metaSection.IndexCellM — at their defaults. v4 keeps that section as
// it was, and gob skips fields its type lacks, so an artifact whose
// metadata still carries them loads, keeps the remaining Meta().Build
// fields, and routes the 220 digest ODs and ingests raw GPS exactly
// like the same router saved without them. The matcher and region settings are written both as the zero
// value old artifacts hold and spelled out, so the decoder skips a
// non-empty struct and non-zero fields too.
func TestLoadV3LegacyMeta(t *testing.T) {
	type mapMatchConfig struct {
		CandidateRadiusM, SigmaM, BetaM float64
		MaxCandidates                   int
		MinSpacingM                     float64
		RouteFactor, RouteSlackM        float64
	}
	type regionOptions struct {
		TopK, MaxRegionSpan, MaxTransferCenters int
	}
	type buildInfo struct {
		PathBackend, ClusterMethod string
		SkipMapMatching            bool
		MinConfidence              float64
		LearnMaxPaths              int
		IndexCellM                 float64
		Region                     regionOptions
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

	span := m.Build.Region.MaxRegionSpan
	for _, c := range []struct {
		mm  mapMatchConfig
		reg regionOptions
	}{
		{mapMatchConfig{}, regionOptions{MaxRegionSpan: span}},
		{mapMatchConfig{60, 10, 60, 6, 30, 6, 800}, regionOptions{2, span, 4}},
	} {
		legacy := legacyMetaSection{
			Meta: artifactMeta{Name: m.Name, Generation: m.Generation, SavedUnixNano: m.SavedUnixNano, Build: buildInfo{
				PathBackend: "ch", ClusterMethod: m.Build.ClusterMethod,
				SkipMapMatching: m.Build.SkipMapMatching, MinConfidence: 0.7,
				LearnMaxPaths: m.Build.LearnMaxPaths, IndexCellM: 300,
				Region: c.reg, MapMatch: c.mm,
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
			t.Fatalf("legacy settings %+v: a legacy v3 artifact no longer loads: %v", c, err)
		}
		if got.Meta() != m || got.Stats() != want.Stats() {
			t.Fatalf("legacy settings %+v: loaded meta %+v stats %+v, want %+v %+v", c, got.Meta(), got.Stats(), m, want.Stats())
		}
		if learned, routes := modelDigest(got); learned != wantLearned || routes != wantRoutes {
			t.Fatalf("legacy settings %+v: legacy artifact digests %#x %#x, today's %#x %#x", c, learned, routes, wantLearned, wantRoutes)
		}
		ingested := got.IngestClone()
		ingested.Ingest(ts[cut:], IngestOptions{})
		if learned, routes := modelDigest(ingested); learned != wantIngestedLearned || routes != wantIngestedRoutes {
			t.Fatalf("legacy settings %+v: after a raw-GPS ingest, legacy artifact digests %#x %#x, today's %#x %#x", c, learned, routes, wantIngestedLearned, wantIngestedRoutes)
		}
	}
}

// TestLoadScattersLearnedMap: the v1/v2 envelope kept every fit in its
// Learned map while a router keeps them on its region edges. Save
// writes the fits to the preference section and nowhere else: a loaded
// router saves to the bytes the original saves to outside the metadata,
// and clearing every fit changes the preference section alone.
func TestLoadScattersLearnedMap(t *testing.T) {
	r := builtRouter(t)
	saved := artifactParts(t, saveArtifact(t, r.IngestClone()))
	loaded, err := Load(bytes.NewReader(joinParts(t, saved)))
	if err != nil {
		t.Fatal(err)
	}
	requireSameFits(t, r, loaded)
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
}

// The parts of an artifact payload, as artifactParts splits it: the
// road identity, then the five sections.
const (
	partRoadID = iota
	partRoad
	partRegion
	partPrefs
	partMeta
	partOrder
	numParts
)

// artifactParts splits a v5, v4 or v3 artifact into its parts.
func artifactParts(t testing.TB, art []byte) [][]byte {
	t.Helper()
	_, payload, err := codec.ReadFrameBytes(bytes.NewReader(art), ArtifactVersion, artifactVersionV4, artifactVersionV3)
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

// joinParts is artifactParts' inverse: the parts framed as a v5
// artifact.
func joinParts(t testing.TB, parts [][]byte) []byte {
	t.Helper()
	return frameParts(t, ArtifactVersion, parts)
}

// frameParts frames parts as an artifact of the given version.
func frameParts(t testing.TB, version uint16, parts [][]byte) []byte {
	t.Helper()
	e := codec.Enc{B: append([]byte(nil), parts[partRoadID]...)}
	for _, part := range parts[1:] {
		mark := e.Begin()
		e.Write(part)
		e.End(mark)
	}
	var buf bytes.Buffer
	if err := codec.WriteFrameBytes(&buf, version, e.B); err != nil {
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
