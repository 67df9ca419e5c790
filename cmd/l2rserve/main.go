// Command l2rserve serves built L2R routers over HTTP: concurrent
// routing queries with a sharded result cache that also coalesces
// concurrent duplicates, live trajectory ingestion via copy-on-write
// snapshot swaps, and serving metrics.
//
// A deployment loads artifacts produced by l2rartifact (paying the
// offline build once). Three modes:
//
//	l2rserve -artifact router.l2r          one world, single-tenant API
//	l2rserve -artifact-dir artifacts/      one tenant per *.l2r file,
//	                                       hot-reloaded on change
//	l2rserve [-net n1|n2|tiny] [-trips N]  synthetic world (demos,
//	                                       load tests)
//
// Every world is served on the customizable contraction hierarchy: a
// synthetic world is built on it, and a loaded artifact derives it from
// the contraction order it carries — on start, on recovery and on every
// hot reload.
//
// Single-tenant endpoints:
//
//	GET  /route?src=S&dst=D
//	GET  /route/alternatives?src=S&dst=D&k=K
//	POST /ingest                 {"paths": [[v0,v1,...], ...]}
//	POST /stream                 NDJSON GPS points (raw feeds)
//	GET  /stats
//	GET  /healthz
//	GET  /metrics                Prometheus text exposition
//	GET  /debug/trace?n=50       recent request traces (?slow=1 for the
//	                             slow-query log, ?min_ms=5 to filter)
//	GET  /debug/snapshot         engine internals, read without the
//	                             write lock
//	GET  /debug/quality          shadow-score quality, drift gauges and
//	                             worst-route exemplars
//	GET  /debug/maint            background-maintenance state (with
//	                             -maint; 404 otherwise)
//
// With -stream (the default) a streaming ingestion pipeline is
// attached: POST /stream accepts raw per-vehicle NDJSON GPS points
// ({"vehicle":"v1","t":12.5,"x":...,"y":...}), sessionizes them,
// map-matches them online and batches the closed trajectories into
// the live engine; /stats grows a "stream" block. Replay modes feed
// the pipeline without a client: -replay N streams N freshly
// simulated trips (synthetic worlds only), -replay-file f streams a
// recorded NDJSON point log, both paced by -replay-rate.
//
// In fleet mode (-artifact-dir) the same endpoints nest under
// /t/{tenant}/ (tenant = artifact file name sans .l2r), and the
// fleet adds GET /tenants, aggregate GET /stats and GET /healthz.
// The directory is rescanned every -reload interval: new *.l2r files
// become tenants, and a file whose mtime or size changed is reloaded
// and atomically swapped into the live fleet without dropping
// in-flight queries — drop a rebuilt artifact into the directory and
// its tenant picks it up.
//
// With -wal-dir the engine is durable: every ingested batch (HTTP
// /ingest or the streaming pipeline) is appended to a write-ahead log
// before the snapshot swap that applies it, checkpoints fold the log
// into a saved artifact every -checkpoint-every trajectories, and a
// restart recovers checkpoint + log — live-learned state survives
// crashes. In fleet mode the directory is a root with one
// subdirectory per tenant. -wal-sync picks the fsync policy (always |
// none). See OPERATIONS.md for the runbook.
//
// With -maint a background maintenance pipeline rides on each engine:
// ingested trajectories accumulate as evidence and, when a trigger
// fires (preference drift over -maint-drift-tv, volume over
// -maint-min-evidence, or the -maint-interval timer), the model is
// re-transduced on a clone off the hot path and published through the
// same snapshot swap ingestion uses — queries never block, and on a
// durable engine the rebuilt model is checkpointed immediately. GET
// /debug/maint (and a maintenance block in /stats, plus the
// l2r_maint_* metric family) exposes accumulator occupancy, trigger
// gauges and rebuild history. In fleet mode every tenant gets its own
// maintainer. OPERATIONS.md covers trigger tuning and rollback.
//
// Telemetry: every request gets an X-Request-ID (honored when the
// caller supplies one) and, with -trace (the default), a span-tree
// trace of its hot-path stages; requests slower than -slow-query land
// in the slow-query log. One structured access-log line per request
// goes to stderr (-log-format text|json). -debug-addr starts a
// second listener with net/http/pprof, expvar and the telemetry
// endpoints — keep it on localhost or a private interface. With
// -quality-sample-rate > 0 (default 0.1) a model-quality observer
// shadow-scores that fraction of ingested trajectories off the hot
// path: the served route is recomputed for each sampled trip's OD and
// scored against the driven path (paper Eq. 1 / Eq. 4), feeding
// l2r_quality_* and l2r_drift_* gauges on /metrics and the
// worst-route exemplar ring on GET /debug/quality. See the
// Monitoring section of OPERATIONS.md.
//
// The server drains in-flight requests on SIGINT/SIGTERM; a durable
// deployment checkpoints on the way down so the next start is
// replay-free.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/traj"
	"repro/l2r"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	artifact := flag.String("artifact", "", "router artifact to serve (from l2rartifact / Router.Save)")
	artifactDir := flag.String("artifact-dir", "", "serve every *.l2r in this directory as a tenant (fleet mode, hot-reloaded)")
	reload := flag.Duration("reload", 5*time.Second, "artifact-dir rescan interval (fleet mode)")
	network := flag.String("net", "n2", "synthetic network when no artifact: n1, n2 or tiny")
	trips := flag.Int("trips", 1500, "synthetic training trajectories when no artifact")
	seed := flag.Int64("seed", 1, "synthetic world seed")
	cacheSize := flag.Int("cache", 4096, "route cache capacity in entries (negative disables)")
	walDir := flag.String("wal-dir", "", "durable ingestion: write-ahead log + checkpoint directory (fleet mode: one subdirectory per tenant); empty disables")
	checkpointEvery := flag.Int("checkpoint-every", 4096, "durable ingestion: trajectories between automatic checkpoints (negative disables)")
	walSync := flag.String("wal-sync", "always", "write-ahead log fsync policy: always or none")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
	streamOn := flag.Bool("stream", true, "attach the streaming GPS ingestion pipeline (POST /stream)")
	streamBatch := flag.Int("stream-batch", 32, "stream batching: trajectories per ingest swap")
	streamFlush := flag.Duration("stream-flush", 2*time.Second, "stream batching: max age before a partial batch flushes")
	streamGap := flag.Float64("stream-gap", 300, "stream sessionization: time gap (s) that ends a trip")
	replayTrips := flag.Int("replay", 0, "replay N freshly simulated trips through the stream pipeline (synthetic worlds only)")
	replayFile := flag.String("replay-file", "", "replay a recorded NDJSON point log through the stream pipeline")
	replayRate := flag.Float64("replay-rate", 0, "replay pacing: multiple of the feed's own clock (0 = full speed)")
	debugAddr := flag.String("debug-addr", "", "separate diagnostics listener (pprof, expvar, /metrics), e.g. localhost:6060; empty disables")
	traceOn := flag.Bool("trace", true, "record per-request span traces (GET /debug/trace)")
	traceRing := flag.Int("trace-ring", 256, "completed traces kept for /debug/trace")
	qualityRate := flag.Float64("quality-sample-rate", 0.1, "shadow-score this fraction of ingested trajectories off the hot path (GET /debug/quality); 0 disables")
	qualityRing := flag.Int("quality-ring", 16, "worst-scoring OD exemplars kept for /debug/quality")
	maintOn := flag.Bool("maint", false, "attach the background maintenance pipeline: accumulate evidence and re-transduce the model off the hot path when a trigger fires (GET /debug/maint)")
	maintDrift := flag.Float64("maint-drift-tv", 0.25, "maintenance drift trigger: rebuild when preference drift (TV distance) exceeds this (negative disables)")
	maintEvidence := flag.Int("maint-min-evidence", 4096, "maintenance evidence trigger: rebuild after this many trajectories accumulate (negative disables)")
	maintInterval := flag.Duration("maint-interval", 0, "maintenance timer trigger: rebuild this long after the previous one (0 disables)")
	slowQuery := flag.Duration("slow-query", 250*time.Millisecond, "requests at least this slow also land in the slow-query log (negative disables)")
	logFormat := flag.String("log-format", "text", "access log format: text or json")
	flag.Parse()

	var logHandler slog.Handler
	switch *logFormat {
	case "text":
		logHandler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		logHandler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		log.Fatalf("unknown -log-format %q (want text or json)", *logFormat)
	}
	logger := slog.New(logHandler)

	tracer := l2r.NewTracer(l2r.TraceConfig{Ring: *traceRing, SlowThreshold: *slowQuery})
	tracer.SetEnabled(*traceOn)

	var syncPolicy l2r.WALSyncPolicy
	switch *walSync {
	case "always":
		syncPolicy = l2r.WALSyncAlways
	case "none":
		syncPolicy = l2r.WALSyncNone
	default:
		log.Fatalf("unknown -wal-sync %q (want always or none)", *walSync)
	}

	opt := l2r.ServeOptions{
		CacheSize:       *cacheSize,
		WALDir:          *walDir,
		CheckpointEvery: *checkpointEvery,
		WALSync:         syncPolicy,
		Tracer:          tracer,
	}

	var att attachments
	if *qualityRate > 0 {
		att.quality = &l2r.QualityConfig{SampleRate: *qualityRate, Ring: *qualityRing}
	}
	if *maintOn {
		att.maint = &l2r.MaintConfig{DriftTV: *maintDrift, MinEvidence: *maintEvidence, Interval: *maintInterval}
	}
	if *streamOn {
		att.stream = &l2r.StreamConfig{MaxBatch: *streamBatch, FlushAge: *streamFlush, GapS: *streamGap}
	}

	if *artifactDir != "" {
		if *replayTrips > 0 || *replayFile != "" {
			log.Fatal("replay modes are single-tenant; in fleet mode feed POST /t/{tenant}/stream instead")
		}
		serveFleet(*addr, *debugAddr, *artifactDir, *reload, *drain, opt, att, logger)
		return
	}

	start := time.Now()
	router, err := loadRouter(*artifact, *network, *trips, *seed)
	if err != nil {
		log.Fatal(err)
	}
	st := router.Stats()
	log.Printf("router ready in %s: %d vertices, %d regions, %d T-edges, %d B-edges",
		time.Since(start).Round(time.Millisecond), router.Road().NumVertices(), st.Regions, st.TEdges, st.BEdges)

	engine, err := l2r.NewDurableEngine(router, opt)
	if err != nil {
		log.Fatalf("recovering %s: %v", *walDir, err)
	}
	if d := engine.Stats().Durability; d != nil {
		log.Printf("durable: WAL at %s (sync %s, checkpoint every %d trajectories)", *walDir, syncPolicy, *checkpointEvery)
		if d.RecoveredFromCheckpoint || d.ReplayedRecords > 0 {
			log.Printf("recovered: checkpoint=%v, %d WAL records (%d trajectories) replayed, torn tail truncated=%v",
				d.RecoveredFromCheckpoint, d.ReplayedRecords, d.ReplayedTrajectories, d.TornTailTruncated)
		}
	}
	served := engine.Snapshot() // after a checkpoint recovery that is not `router`
	height, arcs := served.CHClimb()
	log.Printf("path engine: customizable contraction hierarchy (elimination tree height %d, %.0f up-arcs per climb; %d metrics customized by this process)",
		height, arcs, served.Customizations())
	ing := att.attach(engine)
	att.announce("")
	var background func(context.Context)
	if ing != nil {
		replay, err := replayPoints(*replayTrips, *replayFile, *artifact, *network, *seed)
		if err != nil {
			log.Fatal(err)
		}
		if len(replay) > 0 {
			background = func(ctx context.Context) {
				n := l2r.ReplayStream(ctx, ing, replay, *replayRate)
				st := ing.StreamStats()
				log.Printf("replay done: %d points -> %d segments closed, %d trajectories flushed over %d swaps",
					n, st.SegmentsClosed, st.FlushedTrajectories, st.Flushes)
			}
		}
	} else if *replayTrips > 0 || *replayFile != "" {
		log.Fatal("replay modes need the stream pipeline; drop -stream=false")
	}

	api := engine.Handler()
	startDebugListener(*debugAddr, api)
	log.Printf("serving on %s (cache %d entries, tracing %v)", *addr, *cacheSize, tracer.Enabled())
	serveAndDrain(*addr, l2r.AccessLog(logger, api), *drain, background)
	shutdown("", engine)
	final := engine.Stats()
	log.Printf("served %d queries (%.1f qps, cache hit rate %.1f%%, %d coalesced, generation %d, %d ingests)",
		final.Queries, final.QPS, 100*final.CacheHitRate, final.CoalescedQueries,
		final.SnapshotGeneration, final.Ingests)
	if final.Stream != nil {
		log.Printf("stream: %d points in, %d segments closed (%d dropped), %d trajectories over %d swaps",
			final.Stream.PointsIn, final.Stream.SegmentsClosed, final.Stream.SegmentsDropped,
			final.Stream.FlushedTrajectories, final.Stream.Flushes)
	}
}

// replayPoints builds the replay feed: a recorded NDJSON log, or a
// fresh simulation over the synthetic world's network (artifacts
// carry no simulator configuration, so -replay needs -net).
func replayPoints(replayTrips int, replayFile, artifact, network string, seed int64) ([]l2r.StreamPoint, error) {
	if replayFile != "" {
		f, err := os.Open(replayFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		pts, err := l2r.ReadStreamNDJSON(f)
		if err != nil {
			return nil, err
		}
		log.Printf("replaying %d recorded points from %s", len(pts), replayFile)
		return pts, nil
	}
	if replayTrips <= 0 {
		return nil, nil
	}
	if artifact != "" {
		return nil, fmt.Errorf("-replay needs a synthetic world (use -replay-file with artifacts)")
	}
	g, cfg, err := traj.PresetWorld(network, seed, seed+2, replayTrips)
	if err != nil {
		return nil, err
	}
	live := traj.NewSimulator(g, cfg).Run()
	pts := l2r.StreamPointsFrom(live, true)
	log.Printf("replaying %d simulated trips (%d points)", len(live), len(pts))
	return pts, nil
}

// attachments is what the flags ask to ride on every served engine;
// nil means off.
type attachments struct {
	quality *l2r.QualityConfig
	maint   *l2r.MaintConfig
	stream  *l2r.StreamConfig
}

// attach wires them onto one engine — the single tenant's, or through
// Fleet.Attach each of a fleet's — and returns the stream pipeline (nil
// when off; the replay modes feed it). The engine stops them on its way
// down, last attached first: the pipeline, so its final flush still
// reaches the observers.
func (a attachments) attach(e *l2r.Engine) (ing *l2r.StreamIngestor) {
	if a.quality != nil {
		l2r.AttachQuality(e, *a.quality)
	}
	if a.maint != nil {
		l2r.AttachMaint(e, *a.maint)
	}
	if a.stream != nil {
		ing = l2r.AttachStream(e, *a.stream)
	}
	return ing
}

// shutdown takes one engine down the planned way and logs how it went:
// Engine.Shutdown stops its attachments — the stream pipeline's final
// flush is journaled — then a durable engine checkpoints, so the next
// start replays nothing (a crash skips this and replays the WAL
// instead), and releases its log. label prefixes the lines (a fleet
// tenant's name).
func shutdown(label string, e *l2r.Engine) {
	err := e.Shutdown()
	switch {
	case err != nil:
		log.Printf("%sfinal checkpoint: %v", label, err)
	case e.Durable():
		log.Printf("%sfinal checkpoint written; restart will be replay-free", label)
	}
}

// announce logs one line per attachment; prefix is the tenant path
// ("/t/{tenant}") in fleet mode.
func (a attachments) announce(prefix string) {
	if a.quality != nil {
		log.Printf("quality observer attached: GET %s/debug/quality (sample rate %.2f, %d exemplars)",
			prefix, a.quality.SampleRate, a.quality.Ring)
	}
	if a.maint != nil {
		log.Printf("maintenance pipeline attached: GET %s/debug/maint (drift > %.2f, evidence >= %d, interval %v)",
			prefix, a.maint.DriftTV, a.maint.MinEvidence, a.maint.Interval)
	}
	if a.stream != nil {
		log.Printf("streaming pipeline attached: POST %s/stream (batch %d, flush %v, gap %.0fs)",
			prefix, a.stream.MaxBatch, a.stream.FlushAge, a.stream.GapS)
	}
}

// serveFleet runs the multi-tenant mode: every *.l2r in dir is a
// tenant, hot-reloaded on change while the fleet serves. Every tenant —
// including ones hot-loaded later — gets its own attachments behind
// /t/{tenant}/, and its engine stops them with itself.
func serveFleet(addr, debugAddr, dir string, reload, drain time.Duration, opt l2r.ServeOptions, att attachments, logger *slog.Logger) {
	fleet := l2r.NewFleet(opt)
	fleet.Attach(func(_ string, e *l2r.Engine) { att.attach(e) })
	att.announce("/t/{tenant}")
	watcher := l2r.NewFleetWatcher(fleet, dir)
	watcher.Logf = log.Printf
	loaded, _, failed := watcher.Scan()
	if loaded == 0 {
		log.Fatalf("no loadable *%s artifacts in %s (%d failed)", l2r.ArtifactExt, dir, failed)
	}
	for _, name := range fleet.Names() {
		e, _ := fleet.Get(name)
		snap := e.Snapshot()
		log.Printf("tenant %q: %d vertices, %d regions (artifact generation %d)",
			name, snap.Road().NumVertices(), snap.Stats().Regions, snap.Meta().Generation)
		if d := e.Stats().Durability; d != nil && (d.RecoveredFromCheckpoint || d.ReplayedRecords > 0) {
			log.Printf("tenant %q recovered: checkpoint=%v, %d WAL records (%d trajectories) replayed",
				name, d.RecoveredFromCheckpoint, d.ReplayedRecords, d.ReplayedTrajectories)
		}
	}

	api := fleet.Handler()
	startDebugListener(debugAddr, api)
	log.Printf("serving fleet of %d tenants on %s (rescan every %v): /t/{tenant}/route, /tenants, /stats",
		fleet.Len(), addr, reload)
	serveAndDrain(addr, l2r.AccessLog(logger, api), drain, func(ctx context.Context) {
		watcher.Watch(ctx, reload)
	})
	for _, name := range fleet.Names() {
		if e, ok := fleet.Get(name); ok {
			shutdown(fmt.Sprintf("tenant %q: ", name), e)
		}
	}
	final := fleet.Stats()
	fleet.Close()
	log.Printf("served %d queries across %d tenants (%.1f qps, cache hit rate %.1f%%, %d coalesced, %d ingests)",
		final.Queries, final.Tenants, final.QPS, 100*final.CacheHitRate,
		final.CoalescedQueries, final.Ingests)
}

// startDebugListener serves runtime diagnostics on a separate address
// so pprof and expvar never share a port with query traffic (keep it
// loopback or firewalled — profiles leak internals). The API's own
// telemetry endpoints (/metrics, /debug/trace, /debug/snapshot) are
// mounted here too, so one diagnostics port carries everything an
// operator needs mid-incident. No-op when addr is empty.
func startDebugListener(addr string, api http.Handler) {
	if addr == "" {
		return
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/metrics", api)
	mux.Handle("/debug/trace", api)
	mux.Handle("/debug/snapshot", api)
	go func() {
		log.Printf("debug listener on %s (pprof, expvar, /metrics, /debug/trace)", addr)
		if err := http.ListenAndServe(addr, mux); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("debug listener: %v", err)
		}
	}()
}

// serveAndDrain runs an HTTP server until SIGINT/SIGTERM, then drains
// in-flight requests for up to the drain timeout. Signal handling is
// installed here — after the offline build/loading work — so Ctrl-C
// during a minutes-long startup still kills the process immediately.
// background, when non-nil, runs alongside the server and is stopped
// by the same signal.
func serveAndDrain(addr string, h http.Handler, drain time.Duration, background func(context.Context)) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if background != nil {
		go background(ctx)
	}
	srv := &http.Server{Addr: addr, Handler: h}
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("listen: %v", err)
		}
	}()
	<-ctx.Done()
	log.Printf("shutting down, draining for up to %v", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
}

// loadRouter either loads a saved artifact or builds a synthetic world.
func loadRouter(artifact, network string, trips int, seed int64) (*l2r.Router, error) {
	if artifact != "" {
		f, err := os.Open(artifact)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		log.Printf("loading artifact %s", artifact)
		return l2r.Load(f)
	}

	g, cfg, err := traj.PresetWorld(network, seed, seed+1, trips)
	if err != nil {
		return nil, err
	}
	log.Printf("no artifact: building synthetic %s world (%d trips, seed %d)", network, trips, seed)
	all := traj.NewSimulator(g, cfg).Run()
	train, _ := traj.Split(all, 0.75*cfg.HorizonSec)
	return l2r.Build(g, train, l2r.Options{SkipMapMatching: true})
}
