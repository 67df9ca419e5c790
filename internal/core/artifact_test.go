package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
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

// TestArtifactV3MatchesV2Reference holds artifact v3 to the v2 writer it
// replaced (handBuiltV2): on the bench cities 1–3 and the ci cities 1–3,
// each after Build, after 8 ingests and after Retransduce, the router
// loaded from Save's v3 bytes and the one the v2 reference reader
// (loadV2) restores from the v2 envelope of the same state have equal
// region snapshots, fits, region preferences, metadata and statistics,
// and route 2,000 ODs identically; the v3 bytes are at most 0.7 of the
// v2 bytes. The v3 router carries the contraction order, and Load
// derives from it exactly the topology ch.BuildTopology contracts (the
// v2 reference, which carries none, contracts). The ci cities skip
// under the race detector and -short.
func TestArtifactV3MatchesV2Reference(t *testing.T) {
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
			requireV3MatchesV2(t, "built", r)
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
			requireV3MatchesV2(t, "after 8 ingests", r)
			r = r.IngestClone()
			r.Retransduce(opt)
			requireV3MatchesV2(t, "after Retransduce", r)
		})
	}
}

// requireV3MatchesV2 saves r as v3 and, through the reference writer,
// as v2, and holds the router Load reads from the first to the one the
// reference reader reads from the second.
func requireV3MatchesV2(t *testing.T, stage string, r *Router) {
	t.Helper()
	v3 := saveArtifact(t, r.Clone())
	a, err := Load(bytes.NewReader(v3))
	if err != nil {
		t.Fatalf("%s: loading v3: %v", stage, err)
	}
	ref := r.Clone()
	ref.meta = a.meta // what Save stamped
	v2 := handBuiltV2(t, ref, ref.learnedPrefs())
	b := loadV2(t, v2)
	if ratio := float64(len(v3)) / float64(len(v2)); ratio > 0.7 {
		t.Errorf("%s: v3 artifact is %d bytes, v2 %d (%.3f; want ≤ 0.7)", stage, len(v3), len(v2), ratio)
	} else {
		t.Logf("%s: v3 %d bytes, v2 %d (%.3f)", stage, len(v3), len(v2), ratio)
	}
	sa, sb := a.rg.Snapshot(), b.rg.Snapshot()
	va, vb := reflect.ValueOf(sa).Elem(), reflect.ValueOf(sb).Elem()
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			t.Fatalf("%s: region snapshots differ in %s", stage, va.Type().Field(i).Name)
		}
	}
	if !reflect.DeepEqual(a.regionPrefs, b.regionPrefs) {
		t.Fatalf("%s: region preferences differ", stage)
	}
	if a.meta != b.meta || a.stats != b.stats {
		t.Fatalf("%s: meta/stats differ:\nv3 %+v %+v\nv2 %+v %+v", stage, a.meta, a.stats, b.meta, b.stats)
	}
	requireSameFits(t, b, a)

	if topo := a.eng.Topology(); !reflect.DeepEqual(topo, ch.BuildTopology(a.road)) {
		t.Fatalf("%s: the topology derived from the carried order differs from ch.BuildTopology's", stage)
	}
	n := a.road.NumVertices()
	rng := rand.New(rand.NewSource(int64(n)))
	for i := 0; i < 2000; i++ {
		s, d := roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n))
		ra, rb := a.Route(s, d), b.Route(s, d)
		if !samePathCore(ra.Path, rb.Path) || ra.Evidence != rb.Evidence {
			t.Fatalf("%s: %d -> %d routes %v (%v) from v3, %v (%v) from v2", stage, s, d, ra.Path, ra.Evidence, rb.Path, rb.Evidence)
		}
	}
}

// TestLoadRejectsOutOfRangeIDs: an artifact is outside input — fleets
// hot-reload them from a directory — so an ID anywhere in one that
// names nothing is a Load error, not a router that panics at query
// time. Where the ID lives in the region graph, the case is the region
// section re-encoded around the bad value; preference cases reach the
// artifact through Save of a router holding them.
func TestLoadRejectsOutOfRangeIDs(t *testing.T) {
	r := builtRouter(t)
	n, regions := r.road.NumVertices(), r.rg.NumRegions()
	bad := roadnet.VertexID(n)
	parts := artifactParts(t, saveArtifact(t, r.Clone()))
	fresh := func() *region.Snapshot {
		s, err := region.DecodeSnapshot(parts[partRegion], r.road)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	withPaths := func(s *region.Snapshot) *region.Edge {
		for i := range s.Edges {
			if len(s.Edges[i].PathsFwd) > 0 {
				return &s.Edges[i]
			}
		}
		t.Fatal("no edge stores a path")
		return nil
	}
	innerRegion := func(s *region.Snapshot) int {
		for reg, ips := range s.Inner {
			if len(ips) > 0 {
				return reg
			}
		}
		t.Fatal("no region stores an inner path")
		return 0
	}
	snapshotCases := map[string]func(s *region.Snapshot){
		"stored path vertex": func(s *region.Snapshot) {
			p := withPaths(s).PathsFwd[0].Path
			p[len(p)-1] = bad
		},
		"negative stored path vertex": func(s *region.Snapshot) { withPaths(s).PathsFwd[0].Path[0] = -1 },
		"inner path vertex": func(s *region.Snapshot) {
			p := s.Inner[innerRegion(s)][0].Path
			p[len(p)-1] = bad
		},
		"transfer center": func(s *region.Snapshot) {
			reg := innerRegion(s)
			s.TransferCenters[reg] = append(s.TransferCenters[reg], bad)
		},
		"transfer-center count": func(s *region.Snapshot) { s.TCCounts[innerRegion(s)][bad] = 3 },
		"top road type": func(s *region.Snapshot) {
			s.TopTypes[0] = append(s.TopTypes[0], roadnet.NumRoadTypes)
		},
		"edge preference": func(s *region.Snapshot) {
			s.Edges[0].HasPref, s.Edges[0].Pref = true, pref.Preference{Master: roadnet.NumCostWeights}
		},
		"edge endpoint": func(s *region.Snapshot) { s.Edges[0].R2 = regions },
		"region member": func(s *region.Snapshot) {
			s.Regions[0].Members = append(s.Regions[0].Members, bad)
		},
	}
	for name, edit := range snapshotCases {
		s := fresh()
		edit(s)
		var e codec.Enc
		s.Append(&e, r.road)
		v3 := append([][]byte(nil), parts...)
		v3[partRegion] = e.B
		if got, err := Load(bytes.NewReader(joinParts(t, v3))); err == nil || got != nil {
			t.Errorf("%s: Load returned a router (err %v); want an error", name, err)
		}
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
	prefCases := map[string]func(learned, regionPrefs map[int]pref.Result){
		"region preference key":          func(_, rp map[int]pref.Result) { rp[regions] = rp[someRegion] },
		"negative region preference key": func(_, rp map[int]pref.Result) { rp[-1] = rp[someRegion] },
		"region preference weight":       func(_, rp map[int]pref.Result) { rp[someRegion] = badWeight },
		"region preference slave":        func(_, rp map[int]pref.Result) { rp[someRegion] = badSlave },
		"learned preference weight":      func(l, _ map[int]pref.Result) { l[0] = badWeight },
		"learned preference slave":       func(l, _ map[int]pref.Result) { l[0] = badSlave },
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
// carries it: on a region edge in the region section, or as an edge's
// fit or a region's preference in the preference section. Load
// therefore customizes at most NumCostWeights × 10 metrics.
func TestLoadRejectsUnproducibleSlave(t *testing.T) {
	r := builtRouter(t)
	odd := pref.Preference{Master: roadnet.DI, Slave: pref.SlaveOf(roadnet.Motorway, roadnet.Residential)}
	parts := artifactParts(t, saveArtifact(t, r.Clone()))
	s, err := region.DecodeSnapshot(parts[partRegion], r.road)
	if err != nil {
		t.Fatal(err)
	}
	s.Edges[0].HasPref, s.Edges[0].Pref = true, odd
	var e codec.Enc
	s.Append(&e, r.road)
	parts[partRegion] = e.B
	if got, err := Load(bytes.NewReader(joinParts(t, parts))); err == nil || got != nil {
		t.Errorf("region edge preference %v: Load returned a router (err %v); want an error", odd, err)
	}

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
// triangle table is allocated, so Load stays within FuzzLoad's bound;
// the same artifact with the order the router was saved with loads.
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
	plain, err := Load(bytes.NewReader(joinParts(t, parts)))
	if err != nil {
		t.Fatalf("star with no order: %v", err)
	}
	requireAllResident(t, "star, contracted afresh", plain)
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

// FuzzLoad feeds Load v3 payloads, framed with a valid checksum so the
// decoder itself is what the fuzzer explores. Load must return a router
// or an error, never panic, and never allocate more than 64 times its
// input plus 4 MiB — the fixed costs are the TSV scanner's 1 MiB buffer
// and gob's type tables for the metadata section: every count and
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
	small[partRoad] = []byte("V\t0\t0\t0\nV\t1\t1e12\t1e12\nE\t0\t1\t1\t1\t1\t0\n")
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

// artifactDigest is an FNV-64a over a v3 artifact's road, region,
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
// were recorded while Load still read the v1/v2 gob envelope and a
// region graph could lack visit counts; dropping those readers leaves
// Save's bytes alone, and this is the check that it does. The values
// are never re-recorded. The ci halves skip under -race and -short.
func TestCIArtifactDigest(t *testing.T) {
	want := map[string]uint64{
		worldgen.ScaleBench:          0x19b9a58419e4b113,
		worldgen.ScaleCI:             0x3bb83775bfa2af7,
		worldgen.ScaleCI + "+ingest": 0xea9b5a716a650f15,
	}
	for _, scale := range []string{worldgen.ScaleBench, worldgen.ScaleCI} {
		if scale == worldgen.ScaleCI && (raceEnabled || testing.Short()) {
			t.Logf("skipping the ci city under -race/-short")
			continue
		}
		r := cityRouter(t, scale)
		if got := artifactDigest(t, saveArtifact(t, r.Clone())); got != want[scale] {
			t.Errorf("%s: artifact digest %#x, want %#x", scale, got, want[scale])
		}
		if scale != worldgen.ScaleCI {
			continue
		}
		w := worldgen.Build(worldgen.MustScale(scale, 1))
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
		key := scale + "+ingest"
		if got := artifactDigest(t, saveArtifact(t, r)); got != want[key] {
			t.Errorf("%s: artifact digest %#x, want %#x", key, got, want[key])
		}
	}
}
