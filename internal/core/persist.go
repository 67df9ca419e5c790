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

	"repro/internal/ch"
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
// build-options summary, save generation). Both were one gob envelope.
// v3 laid the artifact out as flat, length-prefixed sections and added
// the road network's identity and the contraction order. v4 stores the
// road section in binary (roadnet.Graph.Append), every float exact,
// where v3 stored it as roadnet.WriteTSV's rounded text. v5 writes each
// trip once in the region section and every stored path as a window of
// its trip, where v4 wrote each path as a walk of its own (package
// documentation, "Persistence"). Save writes v5 and Load reads v5 only;
// an older file is refused with codec.ErrBadVersion (OPERATIONS.md,
// "Compatibility across versions", gives the upgrade path).
const ArtifactVersion uint16 = 5

// BuildInfo is the compact summary of the Options a router was built
// with, persisted in every artifact so a deployment can audit what it
// is serving without access to the build script.
type BuildInfo struct {
	// ClusterMethod says where the regions came from: "modularity"
	// (Build, the paper's Algorithm 1) or "caller" (BuildWithRegions);
	// older artifacts may also carry "grid" or "hierarchy".
	ClusterMethod string
	// SkipMapMatching and LearnMaxPaths mirror the same-named Options
	// fields.
	SkipMapMatching bool
	LearnMaxPaths   int
	// Region is Options.Region as given: Ingest pairs new trajectories
	// under it. Artifacts older than the field decode it as zero, the
	// default. Artifacts saved before the pipeline's other settings
	// became constants also carry MinConfidence, IndexCellM and MapMatch
	// fields, and Region.TopK and MaxTransferCenters; gob skips them, and
	// no build outside the tests set them to anything but the defaults.
	// Artifacts saved while a router could run on plain Dijkstra carry
	// a PathBackend name too, which gob skips as well.
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

// metaSection is the artifact's metadata section, the one section still
// gob: it carries option structs, and is small. Artifacts saved before
// the index cell became a constant carry an IndexCellM field gob skips.
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
// FNV-64a of its road section (roadnet.Graph.Append), wal.IdentityOf's
// definition — when the router knows it: Save records it over the bytes
// it writes, and Load reads it from the artifact. ok is false only for a
// router built in this process and never saved.
func (r *Router) RoadIdentity() (id uint64, ok bool) { return r.roadID, r.hasRoadID }

// Save serializes the built router — road network, region graph,
// learned and transferred preferences, pipeline statistics and the
// contraction order — as one self-contained, checksummed v5
// artifact (package documentation, "Persistence"). The offline build
// takes minutes at scale (Section VII-C reports 21+245+106+7 minutes for
// D1); Save and Load let a deployment pay it once. On success the
// router carries Meta().Generation + 1, the save time, and knows its
// RoadIdentity.
func (r *Router) Save(w io.Writer) error {
	meta := r.meta
	meta.Generation++
	meta.SavedUnixNano = time.Now().UnixNano()

	// An eighth over what the lineage last read or wrote, for what its
	// ingests add; before either, an estimate from the road's size.
	size := int(r.saveLen.Load()) * 9 / 8
	if size == 0 {
		size = 64*(r.road.NumVertices()+r.road.NumEdges()) + 4096
	}
	e := codec.Enc{B: make([]byte, 8, size)}
	mark := e.Begin()
	r.road.Append(&e)
	e.End(mark)
	// The road is immutable, so an identity the router knows is the
	// hash of the bytes just written.
	roadID, ok := r.RoadIdentity()
	if !ok {
		h := fnv.New64a()
		h.Write(e.B[mark:])
		roadID = h.Sum64()
	}
	binary.BigEndian.PutUint64(e.B, roadID)

	mark = e.Begin()
	r.rg.Append(&e)
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
	order := r.eng.Topology().Order()
	e.Uvarint(uint64(len(order)))
	for _, v := range order {
		e.Uvarint(uint64(v))
	}
	e.End(mark)

	if err := codec.WriteFrameBytes(w, ArtifactVersion, e.B); err != nil {
		return err
	}
	r.meta = meta
	r.roadID, r.hasRoadID = roadID, true
	r.saveLen.Store(int64(len(e.B)))
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

// Load reconstructs a router from a v5 artifact written by Save; any
// other version is refused with codec.ErrBadVersion. The result answers
// queries exactly like the original: it runs on the hierarchy derived
// from the contraction order the artifact carries with every MetricKeys
// metric customized, and its Stats are the saved ones. An artifact is
// outside input, so every ID in it is checked before use. Load runs on
// two cores, as LoadOnto does: the checksum and the hierarchy beside
// the region graph's decode.
func Load(rd io.Reader) (*Router, error) { return LoadOnto(rd, nil, 0) }

// LoadOnto is Load for a restart that restores a checkpoint beside its
// base artifact, already loaded as base (nil for none), whose road
// identity baseID the caller holds (wal.IdentityOfRouter). An artifact
// saved on a road network with that identity is restored onto base's
// road instead of decoding its own copy; one that also carries base's
// contraction order shares base's topology and metric table, as an
// IngestClone does, and customizes only the metrics base lacks. Any
// other artifact derives its own hierarchy, as Load does. The frame is
// read whole and its checksum verified beside the decode (decodeFrame).
func LoadOnto(rd io.Reader, base *Router, baseID uint64) (*Router, error) {
	f, err := codec.ReadFrameUnverified(rd, ArtifactVersion)
	if err != nil {
		return nil, err
	}
	return decodeFrame(f, base, baseID)
}

// hierarchy is the engine a loaded router on road with contraction
// order runs on, before its masked metrics: base's, shared, when road
// is base's road and order base's order; else one derived from order,
// within ch's fill budget, with the three scalar metrics customized.
func hierarchy(road *roadnet.Graph, order []int32, base *Router) (*route.CHEngine, error) {
	if base != nil && road == base.road && slices.Equal(order, base.eng.Topology().Order()) {
		return base.eng.ForkCH(), nil
	}
	topo, err := ch.DeriveTopology(road, order)
	if err != nil {
		return nil, err
	}
	return newEngine(road, topo), nil
}

// newEngine is the engine a router on road runs on: topo with the three
// scalar metrics customized, the masters its masked metrics are stored
// against.
func newEngine(road *roadnet.Graph, topo *ch.Topology) *route.CHEngine {
	return route.NewCHEngine(road, topo, roadnet.TT, route.MetricKey{W: roadnet.DI}, route.MetricKey{W: roadnet.FC})
}

// decodeFrame decodes an artifact frame on two goroutines. A side
// goroutine verifies the checksum first, then waits for the road and the
// contraction order and builds the hierarchy on them (hierarchy), while
// this one decodes the region graph, the preferences and the metadata
// (decodeSections). Once both are done the masked metrics are
// customized in one PrepareAll call, a metric per core. Decoding bytes
// not yet verified is safe: the decoder accepts any payload, without
// panicking and within an allocation bound linear in its length
// (FuzzLoad). Nothing is returned before the side goroutine finishes,
// and a checksum mismatch is codec.ErrCorrupt whatever the decoder
// made of the bytes.
func decodeFrame(f codec.Frame, base *Router, baseID uint64) (*Router, error) {
	var (
		verifyErr, deriveErr error
		eng                  *route.CHEngine
		wg                   sync.WaitGroup
	)
	jobs := make(chan hierarchyJob, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if verifyErr = f.Verify(); verifyErr != nil {
			return
		}
		if job, ok := <-jobs; ok {
			eng, deriveErr = hierarchy(job.road, job.order, base)
		}
	}()
	r, err := decodeSections(f.Payload, base, baseID, jobs)
	close(jobs)
	wg.Wait()
	switch {
	case verifyErr != nil:
		return nil, verifyErr
	case err != nil:
		return nil, err
	case deriveErr != nil:
		return nil, fmt.Errorf("core: contraction order: %w", deriveErr)
	}
	r.setEngine(eng)
	r.saveLen.Store(int64(len(f.Payload)))
	r.eng.PrepareAll(r.MetricKeys())
	return r, nil
}

// hierarchyJob is what decodeSections hands decodeFrame's side
// goroutine: the road and the checked contraction order.
type hierarchyJob struct {
	road  *roadnet.Graph
	order []int32
}

// decodeSections decodes an artifact payload's road identity and
// sections into a router without an engine. It sends the road and the contraction
// order on jobs as soon as both are known, before the region section,
// and sends nothing when either fails.
func decodeSections(payload []byte, base *Router, baseID uint64, jobs chan<- hierarchyJob) (*Router, error) {
	d := codec.NewDec(payload)
	id := d.Uint64()
	roadB, regionB, prefsB, metaB, orderB := d.Section(), d.Section(), d.Section(), d.Section(), d.Section()
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("core: artifact sections: %w", err)
	}
	var road *roadnet.Graph
	if base != nil && id == baseID {
		road = base.road
	} else {
		var err error
		if road, err = roadnet.Decode(roadB); err != nil {
			return nil, fmt.Errorf("core: decoding road network: %w", err)
		}
	}

	d = codec.NewDec(orderB)
	n := road.NumVertices()
	if d.Count(1) != n {
		d.Fail("an order of %d vertices", n)
	}
	order := make([]int32, n)
	seen := make([]bool, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		v := d.Index(n)
		if seen[v] {
			d.Fail("vertex %d twice", v)
		}
		seen[v], order[i] = true, int32(v)
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("core: contraction order is not a permutation: %w", err)
	}
	jobs <- hierarchyJob{road, order}

	rg, err := region.Decode(regionB, road)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	var ms metaSection
	if err := gob.NewDecoder(bytes.NewReader(metaB)).Decode(&ms); err != nil {
		return nil, fmt.Errorf("core: decoding metadata: %w", err)
	}
	r := &Router{road: road, rg: rg, idx: &lazyIndex{}, stats: ms.Stats, meta: ms.Meta,
		roadID: id, hasRoadID: true, regionPrefs: make(map[int]pref.Result)}

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
	return r, nil
}
