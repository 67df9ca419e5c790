// Package l2r is the public API of learn2route, a reproduction of
// "Learning to Route with Sparse Trajectory Sets" (Guo, Yang, Hu,
// Jensen — IEEE ICDE 2018). It builds a trajectory-based router in three
// steps: (1) modularity-based clustering of road intersections into
// regions and construction of a region graph from trajectories; (2)
// learning of routing preferences on trajectory-covered region edges and
// transduction-based transfer of those preferences to uncovered edges;
// (3) unified routing between arbitrary (source, destination) pairs.
//
// Quick start:
//
//	road := roadnet.Generate(roadnet.N2Like(1))
//	sim := traj.NewSimulator(road, traj.D2Like(1, 3000))
//	trips := sim.Run()
//	train, test := traj.Split(trips, 21*86_400)
//	router, err := l2r.Build(road, train, l2r.Options{})
//	if err != nil { ... }
//	res := router.Route(test[0].Source(), test[0].Destination())
//	fmt.Println(res.Path)
//
// Online, NewEngine / NewFleet serve built routers, and AttachStream,
// AttachQuality and AttachMaint put streaming ingestion, the quality
// observer and background maintenance on an engine, whose Close stops
// them (Fleet.Attach runs them for every tenant of a fleet).
// Engine.Shutdown is the planned way down: attachments stopped, a
// durable engine checkpointed, its log released.
package l2r

import (
	"context"
	"io"
	"log/slog"
	"net/http"

	"repro/internal/core"
	"repro/internal/maint"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/roadnet"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/traj"
	"repro/internal/wal"
)

// Re-exported core types. See the internal/core package for full
// documentation of each.
type (
	// Options configures the offline build pipeline.
	Options = core.Options
	// Stats reports offline pipeline measurements (phase timings,
	// region/edge counts).
	Stats = core.Stats
	// Router answers routing queries over a built L2R system.
	Router = core.Router
	// RouteResult is the outcome of a single query.
	RouteResult = core.RouteResult
	// Category classifies queries by endpoint region membership.
	Category = core.Category
)

// Query categories, mirroring the paper's evaluation breakdown.
const (
	InRegion    = core.InRegion
	InOutRegion = core.InOutRegion
	OutRegion   = core.OutRegion
)

// Build runs the offline pipeline — map matching, clustering, region
// graph, preference learning, preference transfer, B-edge path
// materialization — over a road network and training trajectories.
func Build(road *roadnet.Graph, training []*traj.Trajectory, opt Options) (*Router, error) {
	return core.Build(road, training, opt)
}

// TimeAware couples a peak and an off-peak router, built from the
// corresponding slices of the training data, as in the paper's handling
// of time-dependent traffic (Section III, scope item 1). Depending on
// the departure period, one of the two routers answers.
type TimeAware struct {
	Peak    *Router
	OffPeak *Router
}

// BuildTimeAware splits the training trajectories by their Peak flag and
// builds one router per period. Either period may end up with too few
// trajectories to build; in that case the other period's router is used
// for both.
func BuildTimeAware(road *roadnet.Graph, training []*traj.Trajectory, opt Options) (*TimeAware, error) {
	var peak, off []*traj.Trajectory
	for _, t := range training {
		if t.Peak {
			peak = append(peak, t)
		} else {
			off = append(off, t)
		}
	}
	ta := &TimeAware{}
	var err error
	if len(peak) > 0 {
		ta.Peak, err = core.Build(road, peak, opt)
		if err != nil {
			return nil, err
		}
	}
	if len(off) > 0 {
		ta.OffPeak, err = core.Build(road, off, opt)
		if err != nil {
			return nil, err
		}
	}
	if ta.Peak == nil {
		ta.Peak = ta.OffPeak
	}
	if ta.OffPeak == nil {
		ta.OffPeak = ta.Peak
	}
	if ta.Peak == nil {
		return nil, errNoData
	}
	return ta, nil
}

// Route answers a query using the router for the departure period.
func (ta *TimeAware) Route(s, d roadnet.VertexID, peak bool) RouteResult {
	if peak {
		return ta.Peak.Route(s, d)
	}
	return ta.OffPeak.Route(s, d)
}

type buildError string

func (e buildError) Error() string { return string(e) }

const errNoData = buildError("l2r: no training trajectories in either period")

// BuildPersonalized builds a router from a single driver's trajectories
// only, adapting L2R to personalized routing as sketched in the paper's
// scope discussion (Section III, scope item 2). One driver's data is far
// sparser than the fleet's, so more region pairs rely on transferred
// preferences; the returned router is otherwise a regular Router.
func BuildPersonalized(road *roadnet.Graph, training []*traj.Trajectory, driver int, opt Options) (*Router, error) {
	var own []*traj.Trajectory
	for _, t := range training {
		if t.Driver == driver {
			own = append(own, t)
		}
	}
	if len(own) == 0 {
		return nil, errNoDriverData
	}
	return core.Build(road, own, opt)
}

const errNoDriverData = buildError("l2r: no training trajectories for the requested driver")

// IngestOptions configures Router.Ingest; re-exported from core.
type IngestOptions = core.IngestOptions

// IngestStats reports one incremental update; re-exported from core.
type IngestStats = core.IngestStats

// Load reconstructs a router from an artifact written by Router.Save.
// See core.Load.
func Load(r io.Reader) (*Router, error) { return core.Load(r) }

// ArtifactMeta is the metadata persisted with every saved router:
// name, build-options summary, save generation. See core.ArtifactMeta.
type ArtifactMeta = core.ArtifactMeta

// BuildInfo summarizes the Options a router was built with; carried
// inside ArtifactMeta.
type BuildInfo = core.BuildInfo

// Serving re-exports. See the internal/serve package for full
// documentation of the snapshot-swapping design.
type (
	// Engine serves a built Router to concurrent query traffic:
	// lock-free snapshot reads, a sharded LRU route cache with
	// generation-based invalidation, copy-on-write live ingestion, and
	// an HTTP front-end via Engine.Handler.
	Engine = serve.Engine
	// ServeOptions configures an Engine (cache size, path backend,
	// durability, tracing).
	ServeOptions = serve.Options
	// ServeStats is a point-in-time snapshot of serving health: QPS,
	// latency quantiles per query category, cache hit rate, snapshot
	// generation and ingest lag.
	ServeStats = serve.Stats
)

// NewEngine wraps a built router for concurrent online serving. The
// engine takes ownership of r; don't mutate it afterwards. Durability
// options are ignored here — use NewDurableEngine.
func NewEngine(r *Router, opt ServeOptions) *Engine { return serve.NewEngine(r, opt) }

// Durability re-exports. With ServeOptions.WALDir set, an engine
// journals every ingest batch to a write-ahead log *before* the
// snapshot swap that applies it, periodically folds the log into a
// checkpoint (the router as a standard artifact), and recovers checkpoint
// + log on restart — live-learned preference state survives crashes.
// See internal/wal and OPERATIONS.md.

// NewDurableEngine wraps a built router for serving with durable
// ingestion, first recovering whatever a previous process left in
// ServeOptions.WALDir (the latest checkpoint plus the write-ahead-log
// tail, torn final record tolerated, corruption refused). With an
// empty WALDir it is exactly NewEngine.
func NewDurableEngine(r *Router, opt ServeOptions) (*Engine, error) {
	return serve.NewDurableEngine(r, opt)
}

// DurabilityStats reports an engine's write-ahead-log attachment
// (appends, checkpoints, recovery facts); in ServeStats.Durability and
// under "durability" in /stats.
type DurabilityStats = serve.DurabilityStats

// WALSyncPolicy selects the write-ahead log's append fsync policy
// (ServeOptions.WALSync).
type WALSyncPolicy = wal.SyncPolicy

// WAL fsync policies.
const (
	// WALSyncAlways fsyncs every append: batches reported durable
	// survive machine crashes. The default.
	WALSyncAlways = wal.SyncAlways
	// WALSyncNone leaves appends to the OS page cache: they survive a
	// process kill, but a power loss may lose the last seconds.
	WALSyncNone = wal.SyncNone
)

// Multi-tenant serving re-exports. A Fleet hosts one named Engine per
// world — one region graph per city's trajectory set — behind a single
// HTTP front-end with tenant-addressed routes (/t/{tenant}/route, ...)
// and aggregate stats; a FleetWatcher keeps it in sync with a
// directory of artifacts, hot-swapping rebuilt files into the live
// fleet without dropping in-flight queries. Fleet.Attach registers
// what rides on every tenant's engine (a stream, quality or maint
// Attach per tenant); the engine stops it when the tenant is removed
// or the fleet is closed. See internal/serve.
type (
	// Fleet is a registry of named serving engines.
	Fleet = serve.Fleet
	// FleetStats aggregates serving health across tenants.
	FleetStats = serve.FleetStats
	// FleetWatcher hot-reloads a fleet from an artifact directory.
	FleetWatcher = serve.Watcher
	// TenantInfo is one row of the fleet's /tenants listing.
	TenantInfo = serve.TenantInfo
)

// ArtifactExt is the artifact file extension fleet directory loading
// recognizes (".l2r").
const ArtifactExt = serve.ArtifactExt

// NewFleet creates an empty multi-tenant fleet; opt configures every
// engine the fleet creates for its tenants.
func NewFleet(opt ServeOptions) *Fleet { return serve.NewFleet(opt) }

// NewFleetWatcher creates a watcher that loads every *.l2r in dir as a
// tenant of fleet and hot-swaps changed files on each Scan.
func NewFleetWatcher(fleet *Fleet, dir string) *FleetWatcher { return serve.NewWatcher(fleet, dir) }

// Streaming ingestion re-exports. The pipeline turns raw per-vehicle
// GPS point feeds — the paper's actual input — into trajectory batches
// for a serving engine: per-vehicle sessionization (gap/dwell/teleport
// segmentation behind a bounded reorder window), windowed online map
// matching that equals the offline HMM pass, and adaptive batching
// that amortizes the copy-on-write snapshot swap across many
// trajectories. See internal/stream.
type (
	// StreamPoint is one raw GPS observation (the NDJSON wire unit).
	StreamPoint = stream.Point
	// StreamConfig tunes segmentation, matching and batching.
	StreamConfig = stream.Config
	// StreamIngestor is a pipeline bound to one serving engine.
	StreamIngestor = stream.Ingestor
	// StreamSessionizer is the standalone sessionization stage.
	StreamSessionizer = stream.Sessionizer
	// StreamStats reports pipeline health (in ServeStats.Stream).
	StreamStats = serve.StreamStats
)

// AttachStream wires a streaming pipeline into an engine: POST /stream
// appears on its HTTP API and pipeline health in Stats().Stream. The
// engine's Close stops it, final flush included.
func AttachStream(e *Engine, cfg StreamConfig) *StreamIngestor { return stream.Attach(e, cfg) }

// StreamPointsFrom flattens trajectories into a time-ordered point
// stream for replay; perTrip keys each trajectory as its own vehicle.
func StreamPointsFrom(ts []*traj.Trajectory, perTrip bool) []StreamPoint {
	return stream.PointsFrom(ts, perTrip)
}

// ReadStreamNDJSON parses a recorded point stream (the POST /stream
// wire format).
func ReadStreamNDJSON(r io.Reader) ([]StreamPoint, error) { return stream.ReadNDJSON(r) }

// ReplayStream feeds a time-ordered point stream into a pipeline at a
// rate multiple of the feed's own clock (<= 0 replays at full speed),
// closing all sessions at the end.
func ReplayStream(ctx context.Context, ing *StreamIngestor, pts []StreamPoint, rate float64) int {
	return stream.Replay(ctx, ing, pts, rate)
}

// Telemetry re-exports. A Tracer (ServeOptions.Tracer) records
// per-request span trees through every serving layer — HTTP parse,
// cache lookup, coalescing, snapshot acquire, the routing stages, WAL
// append, snapshot swap — into a ring served by /debug/trace, a
// slow-query log, and per-stage latency histograms exported on
// /metrics in Prometheus text format. See internal/obs.
type (
	// Tracer records request traces and per-stage histograms.
	Tracer = obs.Tracer
	// TraceConfig tunes a Tracer (trace ring size, slow-query threshold).
	TraceConfig = obs.Config
	// Trace is one completed request trace (the /debug/trace unit).
	Trace = obs.Trace
	// TracerStats summarizes tracer activity.
	TracerStats = obs.TracerStats
	// EngineDebugSnapshot is the non-blocking /debug/snapshot payload.
	EngineDebugSnapshot = serve.DebugSnapshot
)

// NewTracer creates an enabled request tracer; set it on
// ServeOptions.Tracer (one shared Tracer for a whole fleet) before
// building engines.
func NewTracer(cfg TraceConfig) *Tracer { return obs.NewTracer(cfg) }

// AccessLog wraps an engine or fleet HTTP handler with one structured
// slog line per request: method, path, tenant, status, bytes, duration
// and request ID.
func AccessLog(l *slog.Logger, h http.Handler) http.Handler { return serve.AccessLog(l, h) }

// Model-quality observability re-exports. A quality observer shadow-
// scores a sampled fraction of ingested trajectories off the hot path
// (re-routing their ODs on the current snapshot and scoring the served
// path against the driven one with the paper's Eq. 1 / Eq. 4), tracks
// preference drift and staleness gauges, and keeps a ring of the
// worst-scoring OD exemplars on GET /debug/quality. See
// internal/quality.
type (
	// QualityConfig tunes a quality observer (sample rate, exemplar
	// ring).
	QualityConfig = quality.Config
	// QualityObserver is one engine's shadow scorer; the engine's Close
	// stops it.
	QualityObserver = quality.Observer
	// QualityStats is the observer health block in Stats().Quality,
	// /stats and /debug/quality.
	QualityStats = serve.QualityStats
	// QualityExemplar is one worst-scoring OD kept for debugging.
	QualityExemplar = quality.Exemplar
)

// AttachQuality wires a model-quality observer into an engine: shadow
// scores feed Stats().Quality, /metrics (l2r_quality_* / l2r_drift_*)
// and GET /debug/quality. The engine's Close stops it.
func AttachQuality(e *Engine, cfg QualityConfig) *QualityObserver { return quality.Attach(e, cfg) }

// Background-maintenance re-exports. A maintainer watches rebuild
// triggers on the evidence an engine ingests (preference drift,
// evidence volume, a timer, all since the installed model, all on
// the engine's books), and when one fires re-runs
// preference learning, transduction and B-edge materialization on a
// copy-on-write clone off the hot path, publishing the rebuilt model
// through the engine's snapshot swap. See internal/maint.
type (
	// MaintConfig tunes a maintainer (trigger thresholds).
	MaintConfig = maint.Config
	// Maintainer is one engine's background maintenance pipeline; the
	// engine's Close stops it.
	Maintainer = maint.Maintainer
	// MaintStats is the maintainer health block in Stats().Maintenance,
	// /stats and /debug/maint.
	MaintStats = serve.MaintStats
)

// AttachMaint wires a background maintainer into an engine: evidence
// counts and rebuild cycles feed Stats().Maintenance, /metrics
// (l2r_maint_*) and GET /debug/maint. The engine's Close stops it.
func AttachMaint(e *Engine, cfg MaintConfig) *Maintainer { return maint.Attach(e, cfg) }
