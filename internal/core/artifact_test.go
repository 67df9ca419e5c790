package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/ch"
	"repro/internal/codec"
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
// loaded from Save's v3 bytes and the one loaded from the v2 envelope of
// the same state have equal region snapshots, fits, region preferences,
// metadata and statistics, and route 2,000 ODs identically; the v3
// bytes are at most 0.7 of the v2 bytes. The v3 router carries the
// contraction order, and EnableCH derives from it exactly the topology
// ch.BuildTopology contracts. The ci cities skip under the race
// detector and -short.
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
			opt := Options{SkipMapMatching: true, PathBackend: BackendCH}
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
// as v2, and holds the two loaded routers to each other.
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
	b, err := Load(bytes.NewReader(v2))
	if err != nil {
		t.Fatalf("%s: loading v2: %v", stage, err)
	}
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

	if a.order == nil || b.order != nil {
		t.Fatalf("%s: v3 carries order %v, v2 %v; want only v3", stage, a.order != nil, b.order != nil)
	}
	a.EnableCH(ch.Config{})
	b.EnableCH(ch.Config{})
	if topo := a.eng.(*route.CHEngine).Topology(); !reflect.DeepEqual(topo, ch.BuildTopology(a.road)) {
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
// time. Each case is written by the v2 reference writer and, where the
// ID lives in the region graph, as v3 with its region section
// re-encoded around the bad value; preference cases reach v3 through
// Save of a router holding them.
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
		v2 := encodeV2(t, r, r.learnedPrefs(), func(env *envelope) {
			env.Region = fresh()
			edit(env.Region)
		})
		if got, err := Load(bytes.NewReader(v2)); err == nil || got != nil {
			t.Errorf("%s, v2: Load returned a router (err %v); want an error", name, err)
		}
		s := fresh()
		edit(s)
		var e codec.Enc
		s.Append(&e, r.road)
		v3 := append([][]byte(nil), parts...)
		v3[partRegion] = e.B
		if got, err := Load(bytes.NewReader(joinParts(t, v3))); err == nil || got != nil {
			t.Errorf("%s, v3: Load returned a router (err %v); want an error", name, err)
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
		v2 := encodeV2(t, r, learned, func(env *envelope) { env.RegionPrefs = rp })
		if got, err := Load(bytes.NewReader(v2)); err == nil || got != nil {
			t.Errorf("%s, v2: Load returned a router (err %v); want an error", name, err)
		}
		cl := r.IngestClone()
		cl.regionPrefs = rp
		for id := range cl.rg.Edges {
			fit, ok := learned[id]
			cl.rg.EdgeForUpdate(id).SetFit(fit, ok)
		}
		if got, err := Load(bytes.NewReader(saveArtifact(t, cl))); err == nil || got != nil {
			t.Errorf("%s, v3: Load returned a router (err %v); want an error", name, err)
		}
	}
}

// TestLoadRejectsBadContractionOrder: a v3 order section that is not a
// permutation of the road's vertices — a repeat, a vertex out of range,
// the wrong length — is a Load error; a router loaded with an order and
// saved again before EnableCH writes that same order.
func TestLoadRejectsBadContractionOrder(t *testing.T) {
	r := builtRouter(t)
	r.EnableCH(ch.Config{})
	art := saveArtifact(t, r.Clone())
	loaded, err := Load(bytes.NewReader(art))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.PathBackend() != BackendDijkstra {
		t.Fatal("a loaded router came with a hierarchy")
	}
	parts := artifactParts(t, art)
	if again := artifactParts(t, saveArtifact(t, loaded)); !bytes.Equal(again[partOrder], parts[partOrder]) || len(parts[partOrder]) == 0 {
		t.Fatal("a router loaded with an order did not save that order")
	}
	order := r.eng.(*route.CHEngine).Topology().Order()
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

// FuzzLoad feeds Load v3 payloads, framed with a valid checksum so the
// decoder itself is what the fuzzer explores. Load must return a router
// or an error, never panic, and never allocate more than 64 times its
// input plus 4 MiB — the fixed costs are the TSV scanner's 1 MiB buffer
// and gob's type tables for the metadata section: every count and
// length is checked against the bytes left before anything is
// allocated for it.
func FuzzLoad(f *testing.F) {
	r := builtRouter(f)
	r.EnableCH(ch.Config{})
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
