package core

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/codec"
	"repro/internal/mapmatch"
	"repro/internal/pref"
	"repro/internal/region"
	"repro/internal/roadnet"
	"repro/internal/route"
	"repro/internal/spatial"
)

// ArtifactVersion is the on-disk format version of saved routers. Bump
// it on any change to the envelope layout.
//
// Version history: v1 carried no metadata; v2 added ArtifactMeta
// (name, build-options summary, save generation). The v2 reader still
// loads v1 artifacts — the envelope change is gob-compatible, Meta
// just stays zero — so existing deployments' artifacts keep working.
const ArtifactVersion uint16 = 2

// artifactVersionV1 is the pre-metadata envelope version Load accepts
// for backward compatibility.
const artifactVersionV1 uint16 = 1

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
	// SkipMapMatching, MinConfidence, LearnMaxPaths and IndexCellM
	// mirror the same-named Options fields (post-default resolution).
	SkipMapMatching bool
	MinConfidence   float64
	LearnMaxPaths   int
	IndexCellM      float64
	// Region and MapMatch are the same-named Options fields as given:
	// Ingest pairs and matches new trajectories under them. Artifacts
	// older than these fields decode them as zero, the defaults.
	Region   region.Options
	MapMatch mapmatch.Config
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

// envelope is the gob payload of a saved router. The road network is
// embedded as its TSV serialization (the already-tested roadnet codec)
// so an artifact is self-contained.
type envelope struct {
	Meta        ArtifactMeta
	RoadTSV     []byte
	Region      *region.Snapshot
	Learned     map[int]pref.Result
	RegionPrefs map[int]pref.Result
	Stats       Stats
	IndexCellM  float64
}

// learnedPrefs gathers every region edge's fit into the envelope's
// edge ID -> result map: the fits live on the edges, the artifact
// layout keeps them in a map of their own.
func (r *Router) learnedPrefs() map[int]pref.Result {
	out := make(map[int]pref.Result, len(r.rg.Edges))
	for _, e := range r.rg.Edges {
		if fit, ok := e.Fit(); ok {
			out[e.ID] = fit
		}
	}
	return out
}

// Save serializes the built router — road network, region graph,
// learned and transferred preferences, pipeline statistics — as one
// self-contained, checksummed artifact. The offline build takes minutes
// at scale (Section VII-C reports 21+245+106+7 minutes for D1); Save
// and Load let a deployment pay it once.
// Save also advances the artifact metadata: the written envelope (and,
// on success, the router) carries Meta().Generation + 1 and a fresh
// save timestamp.
func (r *Router) Save(w io.Writer) error {
	var road bytes.Buffer
	if err := roadnet.WriteTSV(&road, r.road); err != nil {
		return fmt.Errorf("core: serializing road network: %w", err)
	}
	meta := r.meta
	meta.Generation++
	meta.SavedUnixNano = time.Now().UnixNano()
	env := envelope{
		Meta:        meta,
		RoadTSV:     road.Bytes(),
		Region:      r.rg.Snapshot(),
		Learned:     r.learnedPrefs(),
		RegionPrefs: r.regionPrefs,
		Stats:       r.stats,
		IndexCellM:  r.idx.CellSize(),
	}
	if err := codec.WriteFrame(w, ArtifactVersion, &env); err != nil {
		return err
	}
	r.meta = meta
	return nil
}

// Load reconstructs a router from an artifact written by Save. The
// result answers queries exactly like the original. Artifacts carry no
// contraction hierarchy; the restored router is Dijkstra-backed — call
// EnableCH to rebuild the hierarchy (seconds, not the minutes of a full
// offline build).
func Load(rd io.Reader) (*Router, error) {
	var env envelope
	if _, err := codec.ReadFrameVersions(rd, &env, ArtifactVersion, artifactVersionV1); err != nil {
		return nil, err
	}
	road, err := roadnet.ReadTSV(bytes.NewReader(env.RoadTSV))
	if err != nil {
		return nil, fmt.Errorf("core: decoding road network: %w", err)
	}
	if env.Region == nil {
		return nil, fmt.Errorf("core: artifact has no region graph")
	}
	rg, err := region.Restore(road, env.Region)
	if err != nil {
		return nil, fmt.Errorf("core: restoring region graph: %w", err)
	}
	cell := env.IndexCellM
	if cell <= 0 {
		cell = 300
	}
	r := &Router{
		road:        road,
		rg:          rg,
		eng:         route.NewEngine(road),
		idx:         spatial.NewIndex(road, cell),
		stats:       env.Stats,
		meta:        env.Meta,
		regionPrefs: env.RegionPrefs,
	}
	for id, fit := range env.Learned {
		if id < 0 || id >= len(rg.Edges) {
			return nil, fmt.Errorf("core: artifact has a learned preference for edge %d of %d", id, len(rg.Edges))
		}
		rg.Edges[id].SetFit(fit, true)
	}
	if r.regionPrefs == nil {
		r.regionPrefs = make(map[int]pref.Result)
	}
	return r, nil
}
