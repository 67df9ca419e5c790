package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/ch"
	"repro/internal/codec"
	"repro/internal/geo"
	"repro/internal/pref"
	"repro/internal/region"
	"repro/internal/roadnet"
	"repro/internal/route"
	"repro/internal/traj"
	"repro/internal/worldgen"
)

// TestArtifactV5MatchesV4Reference holds artifact v5 to the router it
// was saved from and to the v4 writer and reader it replaced
// (regionSectionV4, decodeRegionV4): on the bench cities 1–3 and the ci
// cities 1–3, each after Build, after 8 ingests and after Retransduce,
// the router Load reads from Save's v5 bytes has the saved router's
// road — every coordinate and weight bit for bit, in edge-ID order —
// topology, region graph image, fits, region preferences, metadata and
// statistics, and answers 2,000 ODs as the saved router does (path,
// category, region path, evidence); and its region graph equals, edge
// by edge and region by region, the one the v4 reference reads from the
// v4 section written from the saved router's graph. The v5 bytes are at
// most 0.7 of the v2 envelope's (handBuiltV2; -v logs the ratios and the
// v4 size). The worlds and stages are forArtifactWorlds'.
func TestArtifactV5MatchesV4Reference(t *testing.T) {
	forArtifactWorlds(t, requireV5MatchesV4)
}

// TestArtifactV4MatchesV3Reference holds the road section artifact v4
// introduced and v5 keeps — the road in binary, every float exact — to
// the v3 writer and reader it replaced (handBuiltV3, loadV3, which
// reads WriteTSV's rounded text): on the worlds and stages of
// TestArtifactV5MatchesV4Reference, the router Load reads from Save's
// bytes has the saved router's road bit for bit, and the v3 reference
// restores from the same bytes, the road rewritten as v3 wrote it, the
// same model sections and, on its rounded road, the same paths and
// evidence for 2,000 ODs.
func TestArtifactV4MatchesV3Reference(t *testing.T) {
	forArtifactWorlds(t, requireV4MatchesV3)
}

// forArtifactWorlds runs check on the bench cities 1–3 and the ci
// cities 1–3, each after Build, after 8 ingests and after Retransduce;
// the ci cities skip under the race detector and -short.
func forArtifactWorlds(t *testing.T, check func(t *testing.T, stage string, r *Router)) {
	type world struct {
		scale string
		seed  int64
	}
	var worlds []world
	for seed := int64(1); seed <= 3; seed++ {
		worlds = append(worlds, world{worldgen.ScaleBench, seed})
		if !raceEnabled && !testing.Short() {
			worlds = append(worlds, world{worldgen.ScaleCI, seed})
		}
	}
	for _, wc := range worlds {
		t.Run(fmt.Sprintf("%s-%d", wc.scale, wc.seed), func(t *testing.T) {
			t.Parallel()
			w := worldgen.Build(worldgen.MustScale(wc.scale, wc.seed))
			opt := Options{SkipMapMatching: true}
			r, err := Build(w.Road, w.Train, opt)
			if err != nil {
				t.Fatal(err)
			}
			check(t, "built", r)
			var held []*traj.Trajectory
			for _, tr := range w.Test {
				if len(tr.Truth) >= 2 {
					held = append(held, tr)
				}
			}
			for i := 0; i < 8; i++ {
				next := r.IngestClone()
				st := next.Ingest([]*traj.Trajectory{held[(2*i)%len(held)], held[(2*i+1)%len(held)]}, IngestOptions{SkipMapMatching: true})
				next.PrepareMetricsTouched(st.TouchedEdges)
				r = next
			}
			check(t, "after 8 ingests", r)
			r = r.IngestClone()
			r.Retransduce(opt)
			check(t, "after Retransduce", r)
		})
	}
}

// requireV4MatchesV3 saves r, loads it, and holds the loaded router's
// road to r's, and the loaded router to the one the v3 reference reads
// from the same bytes with the road rewritten as v3 wrote it.
func requireV4MatchesV3(t *testing.T, stage string, r *Router) {
	t.Helper()
	art := saveArtifact(t, r.Clone())
	a, err := Load(bytes.NewReader(art))
	if err != nil {
		t.Fatalf("%s: loading: %v", stage, err)
	}
	if err := sameRoad(r.road, a.road); err != nil {
		t.Fatalf("%s: loaded road: %v", stage, err)
	}
	b := loadV3(t, handBuiltV3(t, art))
	requireSameModel(t, stage+", the v3 reference against the binary road", a, b)

	n := a.road.NumVertices()
	rng := rand.New(rand.NewSource(int64(n)))
	for i := 0; i < 2000; i++ {
		s, d := roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n))
		if ra, rb := a.Route(s, d), b.Route(s, d); !samePathCore(ra.Path, rb.Path) || ra.Evidence != rb.Evidence {
			t.Fatalf("%s: %d -> %d routes %v (%v) from the binary road, %v (%v) from the v3 text", stage, s, d, ra.Path, ra.Evidence, rb.Path, rb.Evidence)
		}
	}
}

// requireV5MatchesV4 saves r as v5, loads it, and holds the loaded
// router to r, and its region graph to the one the v4 reference reads
// from the v4 bytes of r's; the v5 size to the v2 envelope's.
func requireV5MatchesV4(t *testing.T, stage string, r *Router) {
	t.Helper()
	saved := r.Clone()
	v5 := saveArtifact(t, saved)
	a, err := Load(bytes.NewReader(v5))
	if err != nil {
		t.Fatalf("%s: loading v5: %v", stage, err)
	}
	parts := artifactParts(t, v5)
	parts[partRegion] = regionSectionV4(r.rg)
	v4 := frameParts(t, artifactVersionV4, parts)
	v2 := handBuiltV2(t, saved, saved.learnedPrefs())
	if ratio := float64(len(v5)) / float64(len(v2)); ratio > 0.7 {
		t.Errorf("%s: v5 artifact is %d bytes, v2 %d (%.3f; want ≤ 0.7)", stage, len(v5), len(v2), ratio)
	} else {
		t.Logf("%s: v5 %d bytes, v4 %d, v2 %d (%.3f)", stage, len(v5), len(v4), len(v2), ratio)
	}
	if err := sameRoad(r.road, a.road); err != nil {
		t.Fatalf("%s: loaded road: %v", stage, err)
	}
	if !reflect.DeepEqual(a.eng.Topology(), r.eng.Topology()) {
		t.Fatalf("%s: the topology derived from the carried order differs from the saved router's", stage)
	}
	requireSameModel(t, stage+", v5 against the saved router", saved, a)
	requireSameGraph(t, stage+", v5 against the v4 reference", loadV4(t, v4), a.rg)

	n := a.road.NumVertices()
	rng := rand.New(rand.NewSource(int64(n)))
	for i := 0; i < 2000; i++ {
		s, d := roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n))
		if ra, rr := a.Route(s, d), r.Route(s, d); !reflect.DeepEqual(ra, rr) {
			t.Fatalf("%s: %d -> %d routes %+v loaded, %+v saved", stage, s, d, ra, rr)
		}
	}
}

// sameRoad reports the first coordinate, edge or weight of got that is
// not want's bit for bit.
func sameRoad(want, got *roadnet.Graph) error {
	if want.NumVertices() != got.NumVertices() || want.NumEdges() != got.NumEdges() {
		return fmt.Errorf("%d vertices, %d edges; want %d, %d", got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for v := roadnet.VertexID(0); int(v) < want.NumVertices(); v++ {
		if p, q := want.Point(v), got.Point(v); !same(p.X, q.X) || !same(p.Y, q.Y) {
			return fmt.Errorf("vertex %d at %v, want %v", v, q, p)
		}
	}
	for e := roadnet.EdgeID(0); int(e) < want.NumEdges(); e++ {
		x, y := want.Edge(e), got.Edge(e)
		if x.From != y.From || x.To != y.To || x.Type != y.Type || !same(x.Length, y.Length) ||
			!same(x.TravelTime, y.TravelTime) || !same(x.Fuel, y.Fuel) {
			return fmt.Errorf("edge %d is %+v, want %+v", e, y, x)
		}
	}
	return nil
}

// regionImage returns g's image, its whole persisted state.
func regionImage(g *region.Graph) []byte {
	var e codec.Enc
	g.Append(&e)
	return e.B
}

// requireSameModel fails unless got has want's region graph image,
// region preferences, metadata, statistics and fits.
func requireSameModel(t *testing.T, what string, want, got *Router) {
	t.Helper()
	if a, b := regionImage(want.rg), regionImage(got.rg); !bytes.Equal(a, b) {
		t.Fatalf("%s: region graph images differ: %d bytes against %d", what, len(b), len(a))
	}
	if !reflect.DeepEqual(want.regionPrefs, got.regionPrefs) {
		t.Fatalf("%s: region preferences differ", what)
	}
	if want.meta != got.meta || want.stats != got.stats {
		t.Fatalf("%s: meta/stats differ:\n%+v %+v\nwant %+v %+v", what, got.meta, got.stats, want.meta, want.stats)
	}
	for id := range want.rg.Edges {
		wr, wok := want.LearnedPreference(id)
		gr, gok := got.LearnedPreference(id)
		if wr != gr || wok != gok {
			t.Fatalf("%s: edge %d: learned preference %+v %v, want %+v %v", what, id, gr, gok, wr, wok)
		}
	}
}

// TestLoadRejectsOutOfRangeIDs: an artifact is outside input — fleets
// hot-reload them from a directory — so an ID anywhere in one that
// names nothing is a Load error, not a router that panics at query
// time. region.Decode refuses the region section's (its tests edit
// every list); here one case shows Load passing that refusal on, the
// region section re-encoded around a region member off the road.
// Preference cases reach the artifact through Save of a router holding
// them.
func TestLoadRejectsOutOfRangeIDs(t *testing.T) {
	r := builtRouter(t)
	regions := r.rg.NumRegions()
	parts := artifactParts(t, saveArtifact(t, r.Clone()))
	rg, err := region.Decode(parts[partRegion], r.road)
	if err != nil {
		t.Fatal(err)
	}
	rg.Regions[0].Members = append(rg.Regions[0].Members, roadnet.VertexID(r.road.NumVertices()))
	bad := append([][]byte(nil), parts...)
	bad[partRegion] = regionImage(rg)
	if got, err := Load(bytes.NewReader(joinParts(t, bad))); !errors.Is(err, codec.ErrMalformed) || got != nil {
		t.Errorf("region member: Load returned a router (err %v); want codec.ErrMalformed", err)
	}

	someRegion := -1
	for id := range r.regionPrefs {
		someRegion = id
		break
	}
	if someRegion < 0 {
		t.Fatal("no region preference to corrupt")
	}
	badWeight := pref.Result{Preference: pref.Preference{Master: roadnet.NumCostWeights}, Similarity: 1, PathsUsed: 1}
	badSlave := pref.Result{Preference: pref.Preference{Slave: 1 << roadnet.NumRoadTypes}, Similarity: 1, PathsUsed: 1}
	// decodeResult reads edge fits and region preferences alike. An edge
	// keeps its sample size as an int32, so only a region preference can
	// carry one above MaxInt32 into an artifact.
	hugeSample := pref.Result{Similarity: 1, PathsUsed: math.MaxInt32 + 1}
	prefCases := map[string]func(learned, regionPrefs map[int]pref.Result){
		"region preference key":          func(_, rp map[int]pref.Result) { rp[regions] = rp[someRegion] },
		"negative region preference key": func(_, rp map[int]pref.Result) { rp[-1] = rp[someRegion] },
		"region preference weight":       func(_, rp map[int]pref.Result) { rp[someRegion] = badWeight },
		"region preference slave":        func(_, rp map[int]pref.Result) { rp[someRegion] = badSlave },
		"learned preference weight":      func(l, _ map[int]pref.Result) { l[0] = badWeight },
		"learned preference slave":       func(l, _ map[int]pref.Result) { l[0] = badSlave },
		"region preference sample size":  func(_, rp map[int]pref.Result) { rp[someRegion] = hugeSample },
	}
	for name, edit := range prefCases {
		learned, rp := r.learnedPrefs(), make(map[int]pref.Result)
		for id, res := range r.regionPrefs {
			rp[id] = res
		}
		edit(learned, rp)
		cl := r.IngestClone()
		cl.regionPrefs = rp
		for id := range cl.rg.Edges {
			fit, ok := learned[id]
			cl.rg.EdgeForUpdate(id).SetFit(fit, ok)
		}
		if got, err := Load(bytes.NewReader(saveArtifact(t, cl))); err == nil || got != nil {
			t.Errorf("%s: Load returned a router (err %v); want an error", name, err)
		}
	}
}

// TestLoadRejectsUnproducibleSlave: a preference whose slave no
// pipeline emits — neither NoSlave nor one of pref.CandidateSlaves,
// here motorway+residential — is a Load error wherever the artifact
// carries it: as an edge's fit or a region's preference in the
// preference section, and on a region edge in the region section,
// which region.Decode refuses (TestDecodeRejectsBadImages). Load
// therefore customizes at most NumCostWeights × 10 metrics.
func TestLoadRejectsUnproducibleSlave(t *testing.T) {
	r := builtRouter(t)
	odd := pref.Preference{Master: roadnet.DI, Slave: pref.SlaveOf(roadnet.Motorway, roadnet.Residential)}
	fit := r.IngestClone()
	fit.rg.EdgeForUpdate(0).SetFit(pref.Result{Preference: odd, Similarity: 1, PathsUsed: 1}, true)
	if got, err := Load(bytes.NewReader(saveArtifact(t, fit))); err == nil || got != nil {
		t.Errorf("edge fit %v: Load returned a router (err %v); want an error", odd, err)
	}
	regional := r.IngestClone()
	regional.regionPrefs = map[int]pref.Result{0: {Preference: odd, Similarity: 1, PathsUsed: 1}}
	if got, err := Load(bytes.NewReader(saveArtifact(t, regional))); err == nil || got != nil {
		t.Errorf("region preference %v: Load returned a router (err %v); want an error", odd, err)
	}
}

// TestLoadRejectsBadContractionOrder: a v3 order section that is not a
// permutation of the road's vertices — a repeat, a vertex out of range,
// the wrong length — is a Load error; a loaded router serves on the
// order it was saved with, and saved again writes that same order.
func TestLoadRejectsBadContractionOrder(t *testing.T) {
	r := builtRouter(t)
	art := saveArtifact(t, r.Clone())
	loaded, err := Load(bytes.NewReader(art))
	if err != nil {
		t.Fatal(err)
	}
	order := r.eng.Topology().Order()
	if !slices.Equal(loaded.eng.Topology().Order(), order) {
		t.Fatal("a loaded router does not serve on the order it was saved with")
	}
	parts := artifactParts(t, art)
	if again := artifactParts(t, saveArtifact(t, loaded)); !bytes.Equal(again[partOrder], parts[partOrder]) || len(parts[partOrder]) == 0 {
		t.Fatal("a router loaded with an order did not save that order")
	}
	n := len(order)
	for name, o := range map[string][]int32{
		"repeat":       append([]int32{order[1]}, order[1:]...),
		"out of range": append(append([]int32(nil), order[:n-1]...), int32(n)),
		"short":        order[:n-1],
	} {
		var e codec.Enc
		e.Uvarint(uint64(len(o)))
		for _, v := range o {
			e.Uvarint(uint64(v))
		}
		bad := append([][]byte(nil), parts...)
		bad[partOrder] = e.B
		if got, err := Load(bytes.NewReader(joinParts(t, bad))); err == nil || got != nil {
			t.Errorf("%s: Load returned a router (err %v); want an error", name, err)
		}
	}
}

// starArtifact saves a router on a star road — a centre joined both ways
// to each of leaves leaves — and swaps in the order that contracts the
// centre first, which fills the leaves into a clique: n²/2 arcs and
// n³/6 lower triangles from an artifact linear in n.
func starArtifact(tb testing.TB, leaves int) []byte {
	tb.Helper()
	b := roadnet.NewBuilder()
	centre := b.AddVertex(geo.Point{})
	for i := 0; i < leaves; i++ {
		a := 2 * math.Pi * float64(i) / float64(leaves)
		b.AddRoad(centre, b.AddVertex(geo.Point{X: 500 * math.Cos(a), Y: 500 * math.Sin(a)}), roadnet.Residential)
	}
	road := b.Build()
	r := &Router{road: road, rg: region.Build(road, nil, nil, region.Options{}), idx: &lazyIndex{}, regionPrefs: map[int]pref.Result{}}
	r.setEngine(route.BuildCHEngine(road, roadnet.TT, ch.Config{}))
	parts := artifactParts(tb, saveArtifact(tb, r))
	var e codec.Enc
	e.Uvarint(uint64(road.NumVertices()))
	for v := range road.NumVertices() {
		e.Uvarint(uint64(v)) // the centre is vertex 0
	}
	parts[partOrder] = e.B
	return joinParts(tb, parts)
}

// TestLoadRefusesOrderPastFillBudget: an order whose fill would outgrow
// the road — the star's centre first — is a Load error found before the
// triangle table is allocated, so Load stays within FuzzLoad's bound.
// Every artifact carries its order, so the same artifact without one is
// codec.ErrMalformed: Load never plays the contraction game, which has
// no fill budget.
func TestLoadRefusesOrderPastFillBudget(t *testing.T) {
	art := starArtifact(t, 2000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := Load(bytes.NewReader(art))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ch.ErrFill) || got != nil {
		t.Fatalf("centre-first star: Load returned a router %v, error %v; want ch.ErrFill", got != nil, err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 64*uint64(len(art))+4<<20 {
		t.Fatalf("Load of a %d-byte star artifact allocated %d bytes", len(art), d)
	}

	parts := artifactParts(t, art)
	parts[partOrder] = nil
	if got, err := Load(bytes.NewReader(joinParts(t, parts))); !errors.Is(err, codec.ErrMalformed) || got != nil {
		t.Fatalf("star with no order: Load returned a router %v, error %v; want codec.ErrMalformed", got != nil, err)
	}
}

// TestSaveReservesWhatItWrites: Save sizes its buffer from the payload
// length its lineage last loaded or saved, so the second Save of a ci
// router allocates at most 1.5 times the artifact it writes: the
// buffer, the out-edge table the region image walks paths over, and the
// metadata's gob. A buffer sized from the road's counts made it ≈ 2.5
// times. The test skips under -race and -short, as the ci halves do.
func TestSaveReservesWhatItWrites(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("the ci city is skipped under -race/-short")
	}
	r := cityRouter(t, worldgen.ScaleCI).Clone()
	saveArtifact(t, r)
	var buf bytes.Buffer
	buf.Grow(4 << 20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := r.Save(&buf)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; float64(d) > 1.5*float64(buf.Len()) {
		t.Fatalf("the second Save of a %d-byte artifact allocated %d bytes (%.2f×; want ≤ 1.5×)", buf.Len(), d, float64(d)/float64(buf.Len()))
	} else {
		t.Logf("the second Save of a %d-byte artifact allocated %d bytes (%.2f×)", buf.Len(), d, float64(d)/float64(buf.Len()))
	}
}

// requireAllResident fails unless every metric r routes on is resident in
// its engine's shared table.
func requireAllResident(t *testing.T, what string, r *Router) {
	t.Helper()
	for _, k := range r.MetricKeys() {
		if !r.eng.Resident(k.W, k.Mask) {
			t.Fatalf("%s: metric %+v is not customized", what, k)
		}
	}
}

// TestLoadOntoSharesBaseHierarchy: a restart loads its base artifact and
// restores the checkpoint beside it onto that base. A checkpoint on the
// base's road with the base's contraction order — what a crashed
// engine's lineage writes — shares the base's road, topology and metric
// table, customizes exactly the metrics the base lacked, and answers
// like the router it was saved from. A checkpoint carrying another
// order, or saved on another road, derives its own hierarchy. Every
// router Build, Load and LoadOnto return routes on resident metrics
// only.
func TestLoadOntoSharesBaseHierarchy(t *testing.T) {
	r, fresh := splitWorld(t, 67)
	requireAllResident(t, "Build", r)
	art := saveArtifact(t, r.Clone())

	crashed, err := Load(bytes.NewReader(art))
	if err != nil {
		t.Fatal(err)
	}
	requireAllResident(t, "Load", crashed)
	for i := 0; i+4 <= len(fresh); i += 4 {
		next := crashed.IngestClone()
		st := next.Ingest(fresh[i:i+4], IngestOptions{SkipMapMatching: true})
		next.PrepareMetricsTouched(st.TouchedEdges)
		crashed = next
	}
	ckpt := saveArtifact(t, crashed.Clone())

	base, err := Load(bytes.NewReader(art))
	if err != nil {
		t.Fatal(err)
	}
	lacked := 0
	for _, k := range crashed.MetricKeys() {
		if !base.eng.Resident(k.W, k.Mask) {
			lacked++
		}
	}
	if lacked == 0 {
		t.Fatal("the ingests brought no metric the base lacks; the scenario is void")
	}
	baseID, ok := base.RoadIdentity()
	if !ok {
		t.Fatal("a loaded router does not know its road identity")
	}
	before := base.eng.Customizations()
	got, err := LoadOnto(bytes.NewReader(ckpt), base, baseID)
	if err != nil {
		t.Fatal(err)
	}
	if got.road != base.road || got.eng.Topology() != base.eng.Topology() {
		t.Fatal("a checkpoint on the base's road and order did not share the base's road and topology")
	}
	if grew := base.eng.Customizations() - before; grew != uint64(lacked) {
		t.Fatalf("restoring the checkpoint customized %d metrics; the base lacked %d", grew, lacked)
	}
	requireAllResident(t, "LoadOnto", got)
	gl, gr := modelDigest(got)
	if wl, wr := modelDigest(crashed); gl != wl || gr != wr {
		t.Fatalf("the restored checkpoint's model digests %#x %#x, the saved router's %#x %#x", gl, gr, wl, wr)
	}

	parts := artifactParts(t, ckpt)
	order := slices.Clone(base.eng.Topology().Order())
	slices.Reverse(order)
	var e codec.Enc
	e.Uvarint(uint64(len(order)))
	for _, v := range order {
		e.Uvarint(uint64(v))
	}
	parts[partOrder] = e.B
	other, err := LoadOnto(bytes.NewReader(joinParts(t, parts)), base, baseID)
	if err != nil {
		t.Fatal(err)
	}
	if other.road != base.road || other.eng.Topology() == base.eng.Topology() || !slices.Equal(other.eng.Topology().Order(), order) {
		t.Fatal("a checkpoint with another order did not derive its own topology on the base's road")
	}
	requireAllResident(t, "LoadOnto, another order", other)

	elsewhere, _ := splitWorld(t, 62)
	foreign, err := LoadOnto(bytes.NewReader(saveArtifact(t, elsewhere)), base, baseID)
	if err != nil {
		t.Fatal(err)
	}
	if foreign.road == base.road || foreign.eng.Topology() == base.eng.Topology() {
		t.Fatal("a checkpoint on another road shares the base's road or topology")
	}
	requireAllResident(t, "LoadOnto, another road", foreign)
}

// FuzzLoad feeds Load v4 payloads, framed with a valid checksum so the
// decoder itself is what the fuzzer explores. Load must return a router
// or an error, never panic, and never allocate more than 64 times its
// input plus 4 MiB — the fixed cost is gob's type tables for the
// metadata section: every count and
// length is checked against the bytes left before anything is
// allocated for it, and the hierarchy Load derives is held to
// ch.DeriveTopology's fill budget, linear in the road's edges (one seed
// is a star whose order contracts the centre first).
func FuzzLoad(f *testing.F) {
	r := builtRouter(f)
	art := saveArtifact(f, r)
	_, payload, err := codec.ReadFrameBytes(bytes.NewReader(art), ArtifactVersion)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)
	f.Add(payload[:len(payload)/2])
	parts := artifactParts(f, art)
	small := append([][]byte(nil), parts...)
	b := roadnet.NewBuilder()
	b.AddEdge(b.AddVertex(geo.Point{}), b.AddVertex(geo.Point{X: 1e12, Y: 1e12}), roadnet.Motorway)
	var road codec.Enc
	b.Build().Append(&road)
	small[partRoad] = road.B
	small[partRegion] = parts[partRegion][:64]
	_, smallPayload, _ := codec.ReadFrameBytes(bytes.NewReader(joinParts(f, small)), ArtifactVersion)
	f.Add(smallPayload)
	_, starPayload, _ := codec.ReadFrameBytes(bytes.NewReader(starArtifact(f, 300)), ArtifactVersion)
	f.Add(starPayload)

	f.Fuzz(func(t *testing.T, payload []byte) {
		var framed bytes.Buffer
		if err := codec.WriteFrameBytes(&framed, ArtifactVersion, payload); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := Load(bytes.NewReader(framed.Bytes()))
		runtime.ReadMemStats(&after)
		if (err == nil) != (got != nil) {
			t.Fatalf("Load returned router %v and error %v", got != nil, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 64*uint64(len(payload))+4<<20 {
			t.Fatalf("Load of a %d-byte payload allocated %d bytes", len(payload), d)
		}
	})
}

// artifactDigest is an FNV-64a over an artifact's road, region,
// preference and order sections, each preceded by its length. The road
// identity is a hash of the road section, and the metadata section
// carries the save time, so neither is hashed.
func artifactDigest(t testing.TB, art []byte) uint64 {
	t.Helper()
	h := fnv.New64a()
	parts := artifactParts(t, art)
	for _, i := range []int{partRoad, partRegion, partPrefs, partOrder} {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(parts[i])))
		h.Write(n[:])
		h.Write(parts[i])
	}
	return h.Sum64()
}

// TestCIArtifactDigest pins the bytes Save writes outside the metadata
// for the CH-built bench and ci routers (seed 1), and for the ci router
// after 16 chained IngestClone → Ingest batches of two held-out trips,
// TestLearnedModelUnchangedBySearchElimination's write schedule. They
// were recorded while Load still read the v1/v2 gob envelope, and
// re-recorded twice: when artifact v4 replaced the road's text with its
// binary section (the region, preference and order sections hashed
// without the road section gave the same three values before and after
// that change), and when artifact v5 wrote each trip once in the region
// section, which alone moved (TestCIArtifactSections). The v4 values
// stay pinned too, for the same artifacts with their region section
// rewritten by the v4 reference writer from the graph the v5 section
// decodes to (handBuiltV4): what v5 writes and reads back is, byte for
// byte, what v4 wrote. Re-record only for a change of the layout that
// moves these bytes on purpose, and say which sections moved. The ci
// halves skip under -race and -short.
func TestCIArtifactDigest(t *testing.T) {
	want := map[string]uint64{
		worldgen.ScaleBench:          0xfe0e7b2b8b5823d2,
		worldgen.ScaleCI:             0xdcfba8322d7f6e47,
		worldgen.ScaleCI + "+ingest": 0xabdd73ef5391e85c,
	}
	wantV4 := map[string]uint64{
		worldgen.ScaleBench:          0xc1517cad4ec6d4f5,
		worldgen.ScaleCI:             0x4ca37e32c2266064,
		worldgen.ScaleCI + "+ingest": 0x9b635f89b569c932,
	}
	for _, a := range ciArtifacts(t) {
		if got := artifactDigest(t, a.art); got != want[a.key] {
			t.Errorf("%s: artifact digest %#x, want %#x", a.key, got, want[a.key])
		}
		if got := artifactDigest(t, handBuiltV4(t, a.art)); got != wantV4[a.key] {
			t.Errorf("%s: v4 reference artifact digest %#x, want %#x", a.key, got, wantV4[a.key])
		}
	}
}

// TestCIArtifactSections holds TestCIArtifactDigest's artifacts to the
// listing in testdata/artifact_sections.txt: per artifact and section
// (the metadata excluded, as there), its length and FNV-64a. A change of
// layout that moves the digest must show here which sections moved; the
// test prints every line that differs.
func TestCIArtifactSections(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "artifact_sections.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 4 && !strings.HasPrefix(line, "#") {
			want[f[0]+" "+f[1]] = line
		}
	}
	var diff []string
	for _, a := range ciArtifacts(t) {
		parts := artifactParts(t, a.art)
		for _, sec := range []struct {
			name string
			part int
		}{{"road", partRoad}, {"region", partRegion}, {"preferences", partPrefs}, {"order", partOrder}} {
			h := fnv.New64a()
			h.Write(parts[sec.part])
			key := a.key + " " + sec.name
			got := fmt.Sprintf("%s %d %#016x", key, len(parts[sec.part]), h.Sum64())
			if w, ok := want[key]; !ok {
				diff = append(diff, "+ "+got)
			} else if got != w {
				diff = append(diff, "- "+w, "+ "+got)
			}
		}
	}
	if len(diff) > 0 {
		t.Errorf("artifact sections differ from testdata/artifact_sections.txt:\n%s", strings.Join(diff, "\n"))
	}
}

// savedArtifact is one artifact TestCIArtifactDigest pins, under its
// key.
type savedArtifact struct {
	key string
	art []byte
}

// ciArtifacts saves the artifacts TestCIArtifactDigest and
// TestCIArtifactSections hold: the bench and ci routers (seed 1) as
// built, and the ci router after 16 chained IngestClone → Ingest
// batches of two held-out trips. The ci ones are left out under -race
// and -short.
func ciArtifacts(t *testing.T) []savedArtifact {
	t.Helper()
	out := []savedArtifact{{worldgen.ScaleBench, saveArtifact(t, cityRouter(t, worldgen.ScaleBench).Clone())}}
	if raceEnabled || testing.Short() {
		t.Logf("skipping the ci city under -race/-short")
		return out
	}
	r := cityRouter(t, worldgen.ScaleCI)
	out = append(out, savedArtifact{worldgen.ScaleCI, saveArtifact(t, r.Clone())})
	w := worldgen.Build(worldgen.MustScale(worldgen.ScaleCI, 1))
	var held []*traj.Trajectory
	for _, tr := range w.Test {
		if len(tr.Truth) >= 2 {
			held = append(held, tr)
		}
	}
	for i := 0; i < 16; i++ {
		next := r.IngestClone()
		st := next.Ingest(held[2*i:2*i+2], IngestOptions{SkipMapMatching: true})
		next.PrepareMetricsTouched(st.TouchedEdges)
		r = next
	}
	return append(out, savedArtifact{worldgen.ScaleCI + "+ingest", saveArtifact(t, r)})
}
