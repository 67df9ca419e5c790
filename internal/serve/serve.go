package serve

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pref"
	"repro/internal/roadnet"
	"repro/internal/traj"
	"repro/internal/wal"
)

// cacheShards is the route cache's shard count: enough that concurrent
// clients rarely contend on one shard's lock.
const cacheShards = 16

// maxBodyBytes bounds the request bodies the HTTP API accepts: Handler
// wraps every endpoint's body in http.MaxBytesReader, and requests over
// the limit are rejected with 413.
const maxBodyBytes = 8 << 20

// Options configures an Engine.
type Options struct {
	// CacheSize is the route-cache capacity in entries across all
	// shards (default 4096). Negative disables caching. The cache also
	// coalesces: concurrent queries for the same (src, dst, k) on the
	// same snapshot generation collapse to one route computation whose
	// answer all of them share — a cold hot-OD key hit by a thundering
	// herd costs one search instead of one per caller — and never share
	// an answer computed on a pre-swap router with a post-swap query.
	CacheSize int
	// PathBackend is ignored: every router runs on its contraction
	// hierarchy. It stays only while the benchmark module sets it
	// (core.PathBackend says until when).
	PathBackend core.PathBackend

	// WALDir enables durable ingestion: every ingest batch is appended
	// to a write-ahead log in this directory *before* the snapshot swap
	// that applies it, periodic checkpoints fold the log into a saved
	// artifact, and NewDurableEngine recovers checkpoint + log on
	// restart. Empty disables durability. Engines with a WALDir must be
	// built with NewDurableEngine — NewEngine ignores it. For a Fleet
	// the directory is a root: each tenant logs under WALDir/<tenant>/.
	WALDir string
	// CheckpointEvery is the number of trajectories appended to the WAL
	// between automatic checkpoints (default 4096). Negative disables
	// automatic checkpointing; Engine.Checkpoint still works. A
	// checkpoint runs on the write path (queries are unaffected, ingest
	// briefly stalls) and bounds both WAL disk growth and restart
	// replay time.
	CheckpointEvery int
	// WALSync selects the append fsync policy: wal.SyncAlways (the
	// default — a batch reported durable survives machine crashes) or
	// wal.SyncNone (page-cache durability: survives a process kill,
	// may lose the last seconds on power loss).
	WALSync wal.SyncPolicy

	// Tracer attaches request tracing: HTTP requests get a root span
	// (request ID generated or honored from X-Request-ID and echoed
	// back), every serving stage — cache lookup, coalescing, snapshot
	// acquire, region search, inner-path splice, WAL append, snapshot
	// swap, checkpoint — records a child span, completed traces land in
	// the /debug/trace ring and the slow-query log, and per-stage
	// latency histograms appear in /metrics. Nil disables tracing with
	// no measurable hot-path cost. A Fleet shares one tracer across all
	// tenant engines.
	Tracer *obs.Tracer

	// recoverHold, when set (tests only), is waited on before
	// NewDurableEngine replays the write-ahead log, holding a
	// construction open so a test can observe what runs beside it.
	recoverHold chan struct{}
}

func (o Options) withDefaults() Options {
	if o.CacheSize == 0 {
		o.CacheSize = 4096
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 4096
	}
	return o
}

// snapshot is one published generation of the router. The pool hands
// out per-goroutine clones so concurrent queries never share engine
// query state. A clone is a fork of the router's route.CHEngine: the
// immutable built state — road network, spatial index, CH hierarchy —
// is shared across every clone of the snapshot, and per-vertex search
// buffers are deferred to a clone's first query, so creating a pool
// entry costs a struct and only entries that actually serve traffic
// (and only the search kinds they serve) pay for arrays.
type snapshot struct {
	base  *core.Router
	gen   uint64
	books books
	pool  sync.Pool

	driftOnce sync.Once
	drift     Drift // set by driftOf
}

// books are the write path's accounts as of one generation. Every swap
// copies its predecessor's and extends them, so a reader that loads one
// snapshot sees a generation together with the ingests that made it.
type books struct {
	ingests       uint64
	ingestedTrajs uint64
	learn         pref.SearchStats // relearn searches, cumulative over ingests
	oorVertices   uint64           // cumulative out-of-region vertices ingested
	vertices      uint64           // cumulative path vertices ingested
	lastStaleness float64          // the last batch's staleness ratio
	lastIngest    time.Time        // the last trajectory fold-in (zero before any)
	lastSwap      time.Time        // the last snapshot swap
	ingestLag     time.Duration    // wall time of the last copy-on-write ingest
	customizeLag  time.Duration    // CH re-customization time within it
	swapLag       time.Duration    // its clone+customize+publish (serving swap) time
	paths         uint64           // cumulative IngestStats.Paths: the paths ingests folded in
	baseline      baseline         // the last installed model: what Drift and Accrual measure against
}

func newSnapshot(base *core.Router, gen uint64, b books) *snapshot {
	s := &snapshot{base: base, gen: gen, books: b}
	s.pool.New = func() any { return base.Clone() }
	return s
}

func (s *snapshot) borrow() *core.Router   { return s.pool.Get().(*core.Router) }
func (s *snapshot) release(r *core.Router) { s.pool.Put(r) }

// Engine serves routing queries concurrently over snapshot-swapped
// routers. All query methods are safe for concurrent use with each
// other and with Ingest/Publish; Ingest and Publish serialize among
// themselves.
type Engine struct {
	opt   Options
	snap  atomic.Pointer[snapshot]
	cache *routeCache // nil when disabled
	met   metrics

	computes  atomic.Uint64 // route computations actually run
	coalesced atomic.Uint64 // queries that shared another caller's computation

	writeMu sync.Mutex // serializes Ingest and Publish

	// attachments is the copy-on-write list Attach maintains, never nil
	// (attach.go). trajSeq hands out engine-unique trajectory IDs to
	// every ingestion path.
	attachments atomic.Pointer[[]attached]
	trajSeq     atomic.Uint64

	// dur is the optional durability attachment (write-ahead log +
	// checkpointing).
	dur *durability

	// trc is the optional request tracer (Options.Tracer); nil-safe
	// everywhere it is used.
	trc *obs.Tracer

	start     time.Time
	closeOnce sync.Once // Close and Shutdown release the engine once
}

// NewEngine wraps a built router for serving, as generation 1, and
// installs r as the model Drift and Accrual measure against until the
// first publish. The engine takes ownership: the caller must not mutate r
// (or Clones of it) afterwards. Durability options (Options.WALDir)
// are ignored here — use NewDurableEngine, which can fail on recovery.
func NewEngine(r *core.Router, opt Options) *Engine {
	return newEngine(r, opt, 0)
}

// newEngine is NewEngine with the number of trajectories start-up
// recovery replayed onto r, which Accrual counts as evidence until the
// first publish.
func newEngine(r *core.Router, opt Options, recovered int) *Engine {
	opt = opt.withDefaults()
	e := &Engine{opt: opt, start: time.Now(), trc: opt.Tracer}
	e.attachments.Store(new([]attached))
	if opt.CacheSize > 0 {
		e.cache = newRouteCache(opt.CacheSize, cacheShards)
	}
	e.snap.Store(newSnapshot(r, 1, books{lastSwap: e.start, baseline: install(r, 1, 0, recovered)}))
	return e
}

// Ready reports true: an engine serves from the moment it is returned.
// It stays for the benchmark module's callers and goes with the
// benchmark change of ROADMAP.md item 8, beside PathBackend and
// ch.Config.
func (e *Engine) Ready() bool { return true }

// Generation returns the current snapshot generation. It starts at 1
// and increments on every Ingest or Publish.
func (e *Engine) Generation() uint64 {
	return e.snap.Load().gen
}

// Snapshot returns the current generation's router for read-only use
// (inspection, stats). Callers must not mutate it and must not call its
// query methods concurrently with anything else; borrow a view through
// Route/RouteK instead.
func (e *Engine) Snapshot() *core.Router {
	return e.snap.Load().base
}

// Route answers one routing query. The boolean reports whether the
// answer was shared rather than computed for this caller — a route
// cache hit, or a coalesced duplicate that rode another caller's
// in-flight computation. The result (including its Path) may be shared
// with other callers and must be treated as immutable.
func (e *Engine) Route(s, d roadnet.VertexID) (core.RouteResult, bool) {
	res, _, hit, _ := e.routeK(context.Background(), s, d, 1)
	return res[0], hit
}

// RouteK answers one query with up to k ranked alternatives (k <= 1
// behaves like Route). Results may be shared with other callers and
// must be treated as immutable.
func (e *Engine) RouteK(s, d roadnet.VertexID, k int) ([]core.RouteResult, bool) {
	res, _, hit, _ := e.routeK(context.Background(), s, d, k)
	return res, hit
}

// routeK additionally reports each result's measure (nil on an engine
// without a cache, which has nowhere to keep them) and the generation
// of the snapshot that answered — Engine.Generation() read separately
// could already be a swap ahead of the router that computed the route.
// ctx carries the request's trace, when one is active; with a plain
// context every span call below is a nil no-op.
func (e *Engine) routeK(ctx context.Context, s, d roadnet.VertexID, k int) ([]core.RouteResult, []measure, bool, uint64) {
	if k < 1 {
		k = 1
	}
	start := time.Now()
	snap := e.snap.Load()
	sp := obs.SpanFrom(ctx)
	var res []core.RouteResult
	var meas []measure
	shared := false
	if e.cache == nil {
		res, meas = e.compute(ctx, snap, s, d, k)
	} else {
		key := cacheKey{s: s, d: d, k: int32(k)}
		c := sp.Start("cache.lookup")
		var fl *flight
		var lead bool
		res, meas, fl, lead = e.cache.lookup(key, snap.gen)
		c.End()
		switch {
		case res != nil:
			sp.Annotate("cache", "hit")
			shared = true
		case lead:
			res, meas = e.lead(ctx, snap, key, fl)
		case fl != nil:
			// A concurrent duplicate is computing this answer: wait for
			// it, which is all the coalesce span times.
			w := sp.Start("coalesce")
			res, meas, shared = fl.wait()
			w.End()
			if shared {
				sp.Annotate("coalesced", "true")
				e.coalesced.Add(1)
			} else {
				// The leader panicked out of compute without an answer.
				// Compute locally — the panic (a routing bug) surfaces on
				// the leader's stack, not as a nil result here.
				res, meas = e.compute(ctx, snap, s, d, k)
			}
		default: // a newer generation holds the entry
			res, meas = e.compute(ctx, snap, s, d, k)
		}
	}
	e.met.observe(res[0].Category, time.Since(start))
	return res, meas, shared, snap.gen
}

// lead computes the answer of the flight a cache lookup of key reserved
// for this caller, on snap, and lands it. The landing is deferred so a
// compute that panics still releases the flight's waiters.
func (e *Engine) lead(ctx context.Context, snap *snapshot, key cacheKey, fl *flight) ([]core.RouteResult, []measure) {
	defer e.cache.land(key, fl)
	fl.res, fl.meas = e.compute(ctx, snap, key.s, key.d, int(key.k))
	fl.ok = true
	return fl.res, fl.meas
}

// compute runs one route computation on a borrowed clone of snap's
// router. With the cache on, the answer's measures are walked here, so
// the cache can carry them with it; with it off nothing would carry the
// measures to a second reader, so they are left to whoever needs them
// (the handler).
func (e *Engine) compute(ctx context.Context, snap *snapshot, s, d roadnet.VertexID, k int) ([]core.RouteResult, []measure) {
	ctx, csp := obs.StartSpan(ctx, "route.compute")
	acq := csp.Start("snapshot.acquire")
	r := snap.borrow()
	acq.End()
	var res []core.RouteResult
	var meas []measure
	switch {
	case k > 1:
		res = r.RouteKCtx(ctx, s, d, k)
	case e.cache == nil:
		res = []core.RouteResult{r.RouteCtx(ctx, s, d)}
	default:
		// The result and its measure share one block: a miss allocates
		// as many objects as it did before measures rode along.
		blk := new(struct {
			res  [1]core.RouteResult
			meas [1]measure
		})
		blk.res[0] = r.RouteCtx(ctx, s, d)
		res, meas = blk.res[:], blk.meas[:0]
	}
	snap.release(r)
	csp.End()
	e.computes.Add(1)
	if e.cache != nil {
		if meas == nil {
			meas = make([]measure, 0, len(res))
		}
		meas = appendMeasures(meas, snap.base.Road(), res)
	}
	return res, meas
}

// Ingest feeds new trajectories into the served router without
// blocking queries: it copy-on-write clones the current router
// (sharing the region graph and the contraction-hierarchy topology
// with the serving generation), ingests into the clone, re-customizes
// the CH metrics the new preferences need, and atomically publishes
// the clone as the next generation. Concurrent Ingest calls serialize;
// queries keep reading the previous generation until the swap. The
// trajectories are map-matched; IngestMatched takes resolved paths.
func (e *Engine) Ingest(ts []*traj.Trajectory) core.IngestStats {
	st, _, _ := e.ingestDurable(context.Background(), wal.Batch{Trajs: ts})
	return st
}

// ingestDurable is the full write path; it also reports the generation
// it published — reading Generation() afterwards could observe a later
// concurrent swap. With durability attached, the batch is appended to
// the write-ahead log *before* the snapshot swap (rule 5 of the
// snapshot contract: a crash after the append replays the batch; a
// crash before it never served the batch), and a checkpoint runs
// afterwards when enough trajectories have accumulated.
// durable reports whether the append (and its fsync, under SyncAlways)
// succeeded; an append failure is counted and the batch still serves
// from memory, so ingestion degrades to pre-WAL behavior rather than
// dropping data on a full disk.
func (e *Engine) ingestDurable(ctx context.Context, b wal.Batch) (core.IngestStats, uint64, bool) {
	sp := obs.SpanFrom(ctx)
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	durable := false
	if e.dur != nil {
		ap := sp.Start("wal.append")
		durable = e.dur.append(b)
		ap.End()
	}
	start := time.Now()
	cur := e.snap.Load()
	cl := sp.Start("snapshot.clone")
	next := cur.base.IngestClone()
	cl.End()
	st, customize := applyBatch(sp, next, b)
	bk := cur.books
	bk.ingests++
	bk.ingestedTrajs += uint64(len(b.Trajs))
	bk.learn.Run += st.Learn.Run
	bk.learn.Reused += st.Learn.Reused
	bk.learn.Bounded += st.Learn.Bounded
	bk.learn.Memo += st.Learn.Memo
	bk.learn.Hierarchy += st.Learn.Hierarchy
	// Staleness gauges: how much of the new traffic fell outside the
	// fixed region partition — the maintenance trigger and the
	// rebuild-recommended signal both read from here.
	bk.lastStaleness = st.StalenessRatio()
	bk.oorVertices += uint64(st.OutOfRegionVertices)
	bk.vertices += uint64(st.TotalVertices)
	bk.paths += uint64(st.Paths)
	bk.customizeLag = customize
	sw := sp.Start("snapshot.swap")
	now := time.Now()
	bk.lastIngest, bk.lastSwap = now, now
	bk.ingestLag = now.Sub(start)
	bk.swapLag = bk.ingestLag - st.Elapsed
	e.snap.Store(newSnapshot(next, cur.gen+1, bk))
	sw.End()
	for _, a := range *e.attachments.Load() {
		// Offer the applied batch. The contract is non-blocking (sample,
		// copy, enqueue-or-drop), so holding writeMu here is fine and
		// every ingest path — HTTP /ingest, stream flushes, library
		// calls — funnels through one hook, the only attachment call.
		a.OfferTrajectories(b.Trajs)
	}
	if e.dur != nil && durable && e.dur.shouldCheckpoint() {
		ck := sp.Start("wal.checkpoint")
		e.dur.checkpointLocked(next, e.trajSeq.Load())
		ck.End()
	}
	return st, cur.gen + 1, durable
}

// applyBatch folds one write-ahead-log batch into r in place, under
// the batch's own map-matching flag: the ingest, then the CH metrics it
// touched. It is the one place a batch is applied — live ingest applies
// it to the next generation's clone, recovery replays the log through
// it onto the recovered base — and reports the ingest's stats and how
// long the customization took.
func applyBatch(sp *obs.Span, r *core.Router, b wal.Batch) (core.IngestStats, time.Duration) {
	ig := sp.Start("ingest.apply")
	st := r.Ingest(b.Trajs, core.IngestOptions{SkipMapMatching: b.SkipMapMatching})
	if ig != nil {
		ig.Annotate("learn_searches", strconv.Itoa(st.Learn.Run))
		ig.Annotate("learn_reused", strconv.Itoa(st.Learn.Reused))
		ig.Annotate("learn_bounded", strconv.Itoa(st.Learn.Bounded))
		ig.Annotate("learn_memo", strconv.Itoa(st.Learn.Memo))
		ig.Annotate("learn_hierarchy", strconv.Itoa(st.Learn.Hierarchy))
	}
	ig.End()
	cz := sp.Start("ch.customize")
	czStart := time.Now()
	r.PrepareMetricsTouched(st.TouchedEdges)
	customize := time.Since(czStart)
	cz.End()
	return st, customize
}

// NextTrajectoryID returns the next engine-unique trajectory ID. All
// ingestion paths (HTTP /ingest, the streaming pipeline) draw from the
// same monotonic counter, so IDs never collide across requests or
// sources.
func (e *Engine) NextTrajectoryID() int { return int(e.trajSeq.Add(1) - 1) }

// IngestMatched ingests trajectories whose road-network paths are
// already resolved (Truth/Matched set — e.g. by the streaming
// pipeline's online map matching), skipping the offline matching pass
// Ingest runs. It reports the stats and the generation it published.
func (e *Engine) IngestMatched(ts []*traj.Trajectory) (core.IngestStats, uint64) {
	return e.IngestMatchedCtx(context.Background(), ts)
}

// IngestMatchedCtx is IngestMatched with request tracing: when ctx
// carries a trace (stream flush, HTTP ingest), the write path's stages
// — WAL append, snapshot clone, ingest apply, swap, checkpoint — are
// recorded as spans under it.
func (e *Engine) IngestMatchedCtx(ctx context.Context, ts []*traj.Trajectory) (core.IngestStats, uint64) {
	st, gen, _ := e.ingestDurable(ctx, wal.Batch{SkipMapMatching: true, Trajs: ts})
	return st, gen
}

// Tracer returns the engine's tracer (nil when telemetry is not
// configured — the nil *Tracer is safe to use everywhere).
func (e *Engine) Tracer() *obs.Tracer { return e.trc }

// Publish swaps in an externally built router (e.g. after a full
// offline rebuild when ingest reports RebuildRecommended, or a hot
// artifact reload) as the next generation. The engine takes ownership
// of r.
//
// On a durable engine, Publish also resets the durability baseline:
// the WAL tail predates the published router, so r is immediately
// folded into a fresh checkpoint (continuing r's own artifact lineage)
// and the log is rotated. A restart therefore recovers the published
// artifact plus whatever was ingested after it — never stale pre-reload
// batches replayed onto a post-reload base.
func (e *Engine) Publish(r *core.Router) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.publishLocked(r, true)
}

// publishLocked swaps r in as the next generation and installs it as
// the model Drift and Accrual measure against; writeMu held. external
// marks routers built outside this engine's serving lineage (Publish):
// they may sit on a different road network, so the WAL identity is
// rebound and the checkpoint generation resets to the artifact's own.
// Maintenance rebuilds (RebuildSnapshot) derive from the serving
// snapshot — same road, same checkpoint lineage — so they skip both and
// the checkpoint generation keeps advancing monotonically.
func (e *Engine) publishLocked(r *core.Router, external bool) uint64 {
	cur := e.snap.Load()
	gen := cur.gen + 1
	bk := cur.books
	bk.baseline = install(r, gen, bk.paths, 0)
	bk.lastSwap = bk.baseline.at
	e.snap.Store(newSnapshot(r, gen, bk))
	if e.dur != nil {
		if external {
			// The published router may sit on a different road network
			// than the one the log was bound to (an artifact swap to a
			// new world); rebind so the checkpoint and the rotated log
			// header carry the identity recovery will verify against,
			// and continue the artifact's own save lineage.
			e.dur.log.Rebind(wal.IdentityOfRouter(r))
			e.dur.ckptGen.Store(r.Meta().Generation)
		}
		// Fold the published router into a fresh checkpoint and rotate
		// the log: the WAL tail predates it, and a restart must recover
		// the published state plus whatever is ingested after — never
		// stale pre-publish batches replayed onto a post-publish base.
		e.dur.checkpointLocked(r, e.trajSeq.Load())
	}
	return gen
}
