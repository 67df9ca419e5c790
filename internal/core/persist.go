package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"slices"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/pref"
	"repro/internal/region"
	"repro/internal/roadnet"
	"repro/internal/route"
	"repro/internal/spatial"
)

// ArtifactVersion is the on-disk format version Save writes. Bump it on
// any change to the layout.
//
// Version history: v1 carried no metadata; v2 added ArtifactMeta (name,
// build-options summary, save generation). Both are one gob envelope.
// v3 lays the artifact out as flat, length-prefixed sections and adds
// the road network's identity and the contraction order (package
// documentation, "Persistence"). Load reads all three, so existing
// deployments' artifacts keep working; Save writes v3 only.
const ArtifactVersion uint16 = 3

// The gob envelope versions Load still reads.
const (
	artifactVersionV1 uint16 = 1
	artifactVersionV2 uint16 = 2
)

// BuildInfo is the compact summary of the Options a router was built
// with, persisted in every artifact so a deployment can audit what it
// is serving without access to the build script.
type BuildInfo struct {
	// PathBackend is the String() form of Options.PathBackend.
	// ClusterMethod says where the regions came from: "modularity"
	// (Build, the paper's Algorithm 1) or "caller" (BuildWithRegions);
	// older artifacts may also carry "grid" or "hierarchy".
	PathBackend   string
	ClusterMethod string
	// SkipMapMatching and LearnMaxPaths mirror the same-named Options
	// fields.
	SkipMapMatching bool
	LearnMaxPaths   int
	// Region is Options.Region as given: Ingest pairs new trajectories
	// under it. Artifacts older than the field decode it as zero, the
	// default. Artifacts saved before the pipeline's other settings
	// became constants also carry MinConfidence, IndexCellM and MapMatch
	// fields; gob skips them, and they only ever held the defaults.
	Region region.Options
}

// ArtifactMeta travels with a saved router: who it is (a tenant or
// deployment name), how it was built, and which save generation of its
// build lineage the file carries. The multi-tenant serving layer keys
// hot-reloaded artifacts on it.
type ArtifactMeta struct {
	// Name identifies the artifact's world — a city or tenant. Empty
	// until SetName; fleet loaders fall back to the file name.
	Name string
	// Generation counts saves of this build lineage: Build starts it at
	// 0, every Save stamps and records generation+1. An artifact
	// rebuilt (or re-ingested) and re-saved therefore carries a higher
	// generation than its predecessor — the signal a hot-reload watcher
	// surfaces when it swaps the file into a live fleet.
	Generation uint64
	// SavedUnixNano is the wall-clock save time.
	SavedUnixNano int64
	// Build summarizes the build-time options.
	Build BuildInfo
}

// envelope is the gob payload of a v1/v2 artifact. The road network is
// embedded as its TSV serialization (the already-tested roadnet codec)
// so an artifact is self-contained.
type envelope struct {
	Meta        ArtifactMeta
	RoadTSV     []byte
	Region      *region.Snapshot
	Learned     map[int]pref.Result
	RegionPrefs map[int]pref.Result
	Stats       Stats
	IndexCellM  float64 // always the default; Load ignores it
}

// metaSection is v3's metadata section, the one section still gob: it
// carries option structs, and is small. Artifacts saved before the
// index cell became a constant carry an IndexCellM field gob skips.
type metaSection struct {
	Meta  ArtifactMeta
	Stats Stats
}

// lazyIndex is a router's spatial index, built on first use: only map
// matching reads it, so a loaded router that never matches raw GPS never
// pays for it. Clones share it, as they share the road it indexes.
type lazyIndex struct {
	once sync.Once
	idx  *spatial.Index
}

func (x *lazyIndex) get(road *roadnet.Graph) *spatial.Index {
	x.once.Do(func() { x.idx = spatial.NewIndex(road, indexCellM) })
	return x.idx
}

// RoadIdentity returns the identity of the router's road network — the
// FNV-64a of its roadnet.WriteTSV bytes, wal.IdentityOf's definition —
// when the router knows it: Save records it over the bytes it writes,
// and Load reads it from a v3 artifact. ok is false for a router built
// in this process and never saved, or loaded from a v1/v2 artifact.
func (r *Router) RoadIdentity() (id uint64, ok bool) { return r.roadID, r.hasRoadID }

// Save serializes the built router — road network, region graph,
// learned and transferred preferences, pipeline statistics and the
// contraction order, if any — as one self-contained, checksummed v3
// artifact (package documentation, "Persistence"). The offline build
// takes minutes at scale (Section VII-C reports 21+245+106+7 minutes for
// D1); Save and Load let a deployment pay it once. On success the
// router carries Meta().Generation + 1, the save time, and knows its
// RoadIdentity.
func (r *Router) Save(w io.Writer) error {
	meta := r.meta
	meta.Generation++
	meta.SavedUnixNano = time.Now().UnixNano()

	e := codec.Enc{B: make([]byte, 8, 64*(r.road.NumVertices()+r.road.NumEdges())+4096)}
	mark := e.Begin()
	if err := roadnet.WriteTSV(&e, r.road); err != nil {
		return fmt.Errorf("core: serializing road network: %w", err)
	}
	e.End(mark)
	h := fnv.New64a()
	h.Write(e.B[mark:])
	roadID := h.Sum64()
	binary.BigEndian.PutUint64(e.B, roadID)

	mark = e.Begin()
	r.rg.Snapshot().Append(&e, r.road)
	e.End(mark)

	mark = e.Begin()
	e.Uvarint(uint64(len(r.rg.Edges)))
	for _, ed := range r.rg.Edges {
		if fit, ok := ed.Fit(); !ok {
			e.Byte(0)
		} else {
			e.Byte(1)
			appendResult(&e, fit)
		}
	}
	e.Uvarint(uint64(len(r.regionPrefs)))
	for _, id := range slices.Sorted(maps.Keys(r.regionPrefs)) {
		e.Uvarint(uint64(id))
		appendResult(&e, r.regionPrefs[id])
	}
	e.End(mark)

	mark = e.Begin()
	if err := gob.NewEncoder(&e).Encode(&metaSection{Meta: meta, Stats: r.stats}); err != nil {
		return fmt.Errorf("core: encoding metadata: %w", err)
	}
	e.End(mark)

	mark = e.Begin()
	order := r.order
	if che, ok := r.eng.(*route.CHEngine); ok {
		order = che.Topology().Order()
	}
	if order != nil {
		e.Uvarint(uint64(len(order)))
		for _, v := range order {
			e.Uvarint(uint64(v))
		}
	}
	e.End(mark)

	if err := codec.WriteFrameBytes(w, ArtifactVersion, e.B); err != nil {
		return err
	}
	r.meta = meta
	r.roadID, r.hasRoadID = roadID, true
	return nil
}

func appendResult(e *codec.Enc, res pref.Result) {
	e.Byte(byte(res.Preference.Master))
	e.Byte(byte(res.Preference.Slave))
	e.Float64(res.Similarity)
	e.Int(res.PathsUsed)
}

func decodeResult(d *codec.Dec) pref.Result {
	res := pref.Result{Preference: pref.Preference{Master: roadnet.Weight(d.Byte()), Slave: pref.SlaveFeature(d.Byte())}}
	res.Similarity, res.PathsUsed = d.Float64(), d.Int()
	if !res.Preference.Valid() {
		d.Fail("preference %+v out of range", res.Preference)
	}
	return res
}

// Load reconstructs a router from an artifact written by Save: v3, or
// the v1/v2 gob envelope. The result answers queries exactly like the
// original, on Dijkstra until EnableCH, which derives the hierarchy
// from the contraction order a v3 artifact carries. An artifact is
// outside input, so every ID in it is checked before use.
func Load(rd io.Reader) (*Router, error) { return LoadOnto(rd, nil, 0) }

// LoadOnto is Load for a caller that already holds a road network — a
// restart restoring a checkpoint beside its base artifact: when the
// artifact is v3 and records roadID as its road's identity, the router
// is restored onto road and the artifact's copy of the network is
// skipped, not parsed. roadID must be road's identity.
func LoadOnto(rd io.Reader, road *roadnet.Graph, roadID uint64) (*Router, error) {
	version, payload, err := codec.ReadFrameBytes(rd, ArtifactVersion, artifactVersionV2, artifactVersionV1)
	if err != nil {
		return nil, err
	}
	if version == ArtifactVersion {
		return decodeV3(payload, road, roadID)
	}
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&env); err != nil {
		return nil, fmt.Errorf("codec: decoding payload: %w", err)
	}
	if road, err = roadnet.ParseTSV(env.RoadTSV); err != nil {
		return nil, fmt.Errorf("core: decoding road network: %w", err)
	}
	if env.Region == nil {
		return nil, fmt.Errorf("core: artifact has no region graph")
	}
	r, err := restored(road, env.Region, metaSection{env.Meta, env.Stats})
	if err != nil {
		return nil, err
	}
	for id, fit := range env.Learned {
		if id < 0 || id >= len(r.rg.Edges) || !fit.Preference.Valid() {
			return nil, fmt.Errorf("core: artifact has a learned preference %+v for edge %d of %d", fit.Preference, id, len(r.rg.Edges))
		}
		r.rg.Edges[id].SetFit(fit, true)
	}
	for id, res := range env.RegionPrefs {
		if id < 0 || id >= r.rg.NumRegions() || !res.Preference.Valid() {
			return nil, fmt.Errorf("core: artifact has a preference %+v for region %d of %d", res.Preference, id, r.rg.NumRegions())
		}
		r.regionPrefs[id] = res
	}
	return r, nil
}

// restored is the router both readers assemble around a decoded road
// network, region snapshot and metadata, before the preferences.
func restored(road *roadnet.Graph, snap *region.Snapshot, ms metaSection) (*Router, error) {
	rg, err := region.Restore(road, snap)
	if err != nil {
		return nil, fmt.Errorf("core: restoring region graph: %w", err)
	}
	r := &Router{road: road, rg: rg, idx: &lazyIndex{},
		stats: ms.Stats, meta: ms.Meta, regionPrefs: make(map[int]pref.Result)}
	r.setEngine(route.NewEngine(road))
	return r, nil
}

// decodeV3 decodes a v3 payload: the road identity, then the road,
// region, preference, metadata and contraction-order sections.
func decodeV3(payload []byte, road *roadnet.Graph, roadID uint64) (*Router, error) {
	d := codec.NewDec(payload)
	id := d.Uint64()
	roadTSV, regionB, prefsB, metaB, orderB := d.Section(), d.Section(), d.Section(), d.Section(), d.Section()
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("core: artifact sections: %w", err)
	}
	var err error
	if road == nil || id != roadID {
		if road, err = roadnet.ParseTSV(roadTSV); err != nil {
			return nil, fmt.Errorf("core: decoding road network: %w", err)
		}
	}
	snap, err := region.DecodeSnapshot(regionB, road)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	var ms metaSection
	if err := gob.NewDecoder(bytes.NewReader(metaB)).Decode(&ms); err != nil {
		return nil, fmt.Errorf("core: decoding metadata: %w", err)
	}
	r, err := restored(road, snap, ms)
	if err != nil {
		return nil, err
	}
	r.roadID, r.hasRoadID = id, true

	d = codec.NewDec(prefsB)
	if n := d.Count(1); n != len(r.rg.Edges) {
		d.Fail("fits for %d edges of %d", n, len(r.rg.Edges))
	}
	for _, ed := range r.rg.Edges {
		if d.Byte() != 0 {
			ed.SetFit(decodeResult(d), true)
		}
	}
	for n := d.Count(5); n > 0; n-- {
		id := d.Index(r.rg.NumRegions())
		r.regionPrefs[id] = decodeResult(d)
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("core: decoding preferences: %w", err)
	}

	if d = codec.NewDec(orderB); len(orderB) > 0 {
		n := road.NumVertices()
		if d.Count(1) != n {
			d.Fail("an order of %d vertices", n)
		}
		r.order = make([]int32, n)
		seen := make([]bool, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			v := d.Index(n)
			if seen[v] {
				d.Fail("vertex %d twice", v)
			}
			seen[v], r.order[i] = true, int32(v)
		}
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("core: contraction order is not a permutation: %w", err)
	}
	return r, nil
}
