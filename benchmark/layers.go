package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/ch"
	"repro/internal/core"
	"repro/internal/pref"
	"repro/internal/region"
	"repro/internal/roadnet"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/traj"
	"repro/internal/wal"
)

// perLayer lists the per-layer metrics. Every traced run reports all
// of them; a layer the workload does not exercise reads 0, which is
// the finding (route_cold's serve.cache_hit_ratio, ingest_stream's
// core.route_us). README.md says which end-to-end metric each one is
// expected to move.
var perLayer = []metricDef{
	// read side
	{"serve.handler_self_us", "us"},
	{"serve.handler_post_self_us", "us"},
	{"serve.json_bytes_per_resp", "B"},
	{"serve.route_hit_us", "us"},
	{"serve.engine_self_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.coalesced_ratio", "ratio"},
	{"serve.route_computations", "count"},
	{"serve.first_read_after_swap_us", "us"},
	{"core.route_us", "us"},
	{"core.route_us.InRegion", "us"},
	{"core.route_us.InOutRegion", "us"},
	{"core.route_us.OutRegion", "us"},
	{"core.routek_us", "us"},
	{"core.evidence_share.inner-path", "%"},
	{"core.evidence_share.exact-stored", "%"},
	{"core.evidence_share.preference", "%"},
	{"core.evidence_share.stitched", "%"},
	{"core.evidence_share.fastest", "%"},
	{"core.route_over_fastest_x", "ratio"},
	{"route.fastest_us", "us"},
	{"route.routepref_us", "us"},
	{"ch.query_us", "us"},
	// write side
	{"serve.ingest_us", "us"},
	{"serve.ingest_self_us", "us"},
	{"wal.append_us", "us"},
	{"wal.bytes_per_traj", "B"},
	{"core.ingest_clone_us", "us"},
	{"core.ingest_us", "us"},
	{"core.ingest_self_us", "us"},
	{"region.add_paths_us", "us"},
	{"region.touched_edges_per_batch", "count"},
	{"pref.learn_us", "us"},
	{"pref.learn_share_pct", "%"},
	{"pref.learn_calls_per_batch", "count"},
	{"pref.paths_per_learn", "count"},
	{"core.prepare_metrics_us", "us"},
	{"ch.customize_us", "us"},
	{"ch.metrics_customized", "count"},
	{"wal.checkpoint_us", "us"},
	{"core.save_ms", "ms"},
	{"core.artifact_kb", "KB"},
	// restart
	{"core.load_ms", "ms"},
	{"core.enable_ch_ms", "ms"},
	{"wal.read_checkpoint_ms", "ms"},
	{"wal.replay_us_per_record", "us"},
	{"wal.replayed_records", "count"},
	// set-up
	{"worldgen.build_s", "s"},
	{"cluster.cluster_s", "s"},
	{"pref.learn_all_s", "s"},
	{"transfer.run_s", "s"},
	{"transfer.materialize_s", "s"},
	{"ch.contract_s", "s"},
	{"ch.customize_all_ms", "ms"},
	{"maint.rebuild_s", "s"},
	{"maint.learn_s", "s"},
	{"maint.transfer_s", "s"},
	{"maint.materialize_s", "s"},
	// ledger
	{"ledger_gap_pct", "%"},
	{"trace_overhead_pct", "%"},
}

// refEvery spaces the reference measurements (fastest path, restricted
// path, raw CCH query, k alternatives) over the read ops.
const refEvery = 16

// counts are what a traced pass tallies beside its spans.
type counts struct {
	evidence   [core.EvidenceFastest + 1]int64
	results    int64
	catNS      [core.OutRegion + 1]int64
	catN       [core.OutRegion + 1]int64
	jsonBytes  int64
	responses  int64
	firstRead  []int64 // first read after each swap, nanoseconds
	touched    int64
	learnPaths int64
	customized int64
	walBytes   int64
	walTrajs   int64
	artifactB  int64
	replayed   int64
	attempted  int
	failed     int
}

// merge adds what a second read client tallied; the other fields belong
// to single-client workloads.
func (a *counts) merge(b *counts) {
	for i := range a.evidence {
		a.evidence[i] += b.evidence[i]
	}
	for i := range a.catNS {
		a.catNS[i] += b.catNS[i]
		a.catN[i] += b.catN[i]
	}
	a.results += b.results
	a.attempted += b.attempted
	a.failed += b.failed
}

// references times the layers under core.Router.Route on the same ODs:
// they are not part of an operation, so their spans are detached.
type references struct {
	che  route.PathEngine
	topo *ch.Topology
	tt   *ch.Metric
	mq   *ch.MetricQuery
}

func newReferences(road *roadnet.Graph) *references {
	che := route.BuildCHEngine(road, roadnet.TT, ch.Config{})
	topo := che.Topology()
	return &references{che: che, topo: topo, tt: topo.Customize(travelTime(road)), mq: ch.NewMetricQuery(topo)}
}

func travelTime(road *roadnet.Graph) func(roadnet.EdgeID) float64 {
	return func(e roadnet.EdgeID) float64 { return road.Edge(e).TravelTime }
}

func (r *references) fork() *references {
	return &references{che: r.che.Fork(), topo: r.topo, tt: r.tt, mq: ch.NewMetricQuery(r.topo)}
}

func noMotorway(t roadnet.RoadType) bool { return t != roadnet.Motorway }

func (r *references) measure(tr *tracer, i int, q od, clone *core.Router) {
	id := tr.begin(lFastest, i, detached)
	r.che.Fastest(q.s, q.d)
	tr.end(id)
	id = tr.begin(lRoutePref, i, detached)
	r.che.RoutePref(q.s, q.d, roadnet.TT, noMotorway)
	tr.end(id)
	id = tr.begin(lCHQuery, i, detached)
	r.mq.Route(r.tt, q.s, q.d)
	tr.end(id)
	id = tr.begin(lCoreRouteK, i, detached)
	clone.RouteK(q.s, q.d, altK)
	tr.end(id)
}

// traceRun is a --trace 1 run: one untraced pass for reference, then
// one pass in which the harness records a span around every exported
// call it makes, replaying on clones the decomposition a serving call
// hides. Per-layer numbers come from here and never from the passes
// that produce the end-to-end metrics.
func (e env) traceRun(wd *world, sp spec, seed int64, log io.Writer) (report, error) {
	sched := sp.schedule(seed, len(wd.pool))
	refDur := newSamples(sched)
	ref, err := e.runPass(wd, sp, sched, refDur, true, false)
	if err != nil {
		return report{}, fmt.Errorf("%s reference pass: %w", sp.name, err)
	}

	var tracers []*tracer
	var cn *counts
	vals := map[string]float64{}
	switch {
	case sp.handler:
		tracers, cn, err = e.traceMixed(wd, sp, sched, vals)
	case sp.ingest:
		tracers, cn, err = e.traceIngest(wd, sp, sched, vals)
	default:
		tracers, cn, err = e.traceReads(wd, sp, sched, vals)
	}
	if err != nil {
		return report{}, fmt.Errorf("%s traced pass: %w", sp.name, err)
	}
	var lg ledger
	for _, t := range tracers {
		lg.add(t)
	}
	path, err := e.writeTrace(sp, seed, tracers)
	if err != nil {
		return report{}, err
	}
	fmt.Fprintf(log, "%s: traced %d ops, %d spans, written to %s\n", sp.name, lg.rootN, spanCount(tracers), path)

	layerValues(vals, &lg, cn)
	refNS := int64(0)
	for c := range refDur {
		refNS += sum(refDur[c])
	}
	vals["trace_overhead_pct"] = 100 * (float64(lg.roots)/float64(refNS) - 1)
	vals["worldgen.build_s"] = wd.genS
	vals["cluster.cluster_s"] = wd.build.ClusterTime.Seconds()
	vals["pref.learn_all_s"] = wd.build.LearnTime.Seconds()
	vals["transfer.run_s"] = wd.build.TransferTime.Seconds()
	vals["transfer.materialize_s"] = wd.build.MaterializeTime.Seconds()
	vals["ch.contract_s"] = wd.build.CHBuildTime.Seconds()
	vals["ch.customize_all_ms"] = float64(wd.build.CHCustomizeTime.Microseconds()) / 1e3

	rep := report{
		Attempted: ref.attempted + cn.attempted,
		Failed:    ref.failed + cn.failed,
		Metrics:   metricsOf(perLayer, vals),
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

func spanCount(ts []*tracer) (n int) {
	for _, t := range ts {
		n += len(t.spans)
	}
	return n
}

func perOp(total, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// layerValues turns the ledger and the tallies into the per-layer
// metrics. Times are microseconds per span unless the name says
// otherwise; per-batch figures divide by the ingest operations.
func layerValues(vals map[string]float64, lg *ledger, cn *counts) {
	us := func(ns float64) float64 { return ns / 1e3 }
	reads := lg.count[lHandler]
	batches := lg.count[lServeIngest]
	computed := lg.count[lRoute]

	vals["serve.handler_self_us"] = us(perOp(lg.self(lHandler), reads))
	vals["serve.json_bytes_per_resp"] = perOp(cn.jsonBytes, cn.responses)
	vals["serve.route_hit_us"] = lg.mean(lRouteHit)
	vals["serve.engine_self_us"] = us(perOp(lg.self(lRoute), computed))
	vals["serve.first_read_after_swap_us"] = us(perOp(sum(cn.firstRead), int64(len(cn.firstRead))))
	vals["core.route_us"] = lg.mean(lCoreRoute)
	for c, name := range []string{"InRegion", "InOutRegion", "OutRegion"} {
		vals["core.route_us."+name] = us(perOp(cn.catNS[c], cn.catN[c]))
	}
	vals["core.routek_us"] = lg.mean(lCoreRouteK)
	for ev := core.EvidenceInnerPath; ev <= core.EvidenceFastest; ev++ {
		vals["core.evidence_share."+ev.String()] = 100 * perOp(cn.evidence[ev], cn.results)
	}
	vals["route.fastest_us"] = lg.mean(lFastest)
	vals["route.routepref_us"] = lg.mean(lRoutePref)
	vals["ch.query_us"] = lg.mean(lCHQuery)
	if f := lg.mean(lFastest); f > 0 {
		vals["core.route_over_fastest_x"] = lg.mean(lCoreRoute) / f
	}

	vals["serve.handler_post_self_us"] = us(perOp(lg.self(lHandlerPost), lg.count[lHandlerPost]))
	vals["serve.ingest_us"] = lg.mean(lServeIngest)
	if lg.count[lCoreIngest] > 0 { // only a decomposed ingest has a residual
		vals["serve.ingest_self_us"] = us(perOp(lg.self(lServeIngest), batches))
	}
	vals["wal.append_us"] = lg.mean(lWALAppend)
	vals["wal.bytes_per_traj"] = perOp(cn.walBytes, cn.walTrajs)
	vals["core.ingest_clone_us"] = lg.mean(lIngestClone)
	vals["core.ingest_us"] = lg.mean(lCoreIngest)
	vals["core.ingest_self_us"] = us(perOp(lg.self(lCoreIngest), lg.count[lCoreIngest]))
	vals["region.add_paths_us"] = lg.mean(lAddPaths)
	vals["region.touched_edges_per_batch"] = perOp(cn.touched, lg.count[lAddPaths])
	vals["pref.learn_us"] = us(perOp(lg.total[lLearn], lg.count[lAddPaths]))
	if lg.total[lCoreIngest] > 0 {
		vals["pref.learn_share_pct"] = 100 * float64(lg.total[lLearn]) / float64(lg.total[lCoreIngest])
	}
	vals["pref.learn_calls_per_batch"] = perOp(lg.count[lLearn], lg.count[lAddPaths])
	vals["pref.paths_per_learn"] = perOp(cn.learnPaths, lg.count[lLearn])
	vals["core.prepare_metrics_us"] = lg.mean(lPrepare)
	vals["ch.customize_us"] = lg.mean(lCHCustomize)
	vals["ch.metrics_customized"] = float64(cn.customized)
	vals["wal.checkpoint_us"] = lg.mean(lCheckpoint)
	vals["core.save_ms"] = lg.mean(lSave) / 1e3
	vals["core.artifact_kb"] = float64(cn.artifactB) / 1024

	vals["core.load_ms"] = lg.mean(lLoad) / 1e3
	vals["core.enable_ch_ms"] = lg.mean(lEnableCH) / 1e3
	vals["wal.read_checkpoint_ms"] = lg.mean(lReadCheckpoint) / 1e3
	vals["wal.replay_us_per_record"] = lg.mean(lReplay)
	vals["wal.replayed_records"] = float64(cn.replayed)
	vals["ledger_gap_pct"] = lg.gapPct()
}

func engineCounters(vals map[string]float64, e *serve.Engine) {
	st := e.Stats()
	vals["serve.cache_hit_ratio"] = st.CacheHitRate
	if st.Queries > 0 {
		vals["serve.coalesced_ratio"] = float64(st.CoalescedQueries) / float64(st.Queries)
	}
	vals["serve.route_computations"] = float64(st.RouteComputations)
}

// replayLag is how many computed answers later an answer is replayed.
// Replayed straight after the call it decomposes, the same query runs
// about a third faster on the caches that call just warmed, and the
// difference would be booked as the serving layer's own time; 32
// queries later the replay runs as cold as the call did.
const replayLag = 32

// pendingReplay is a computed answer waiting to be replayed under the
// span of the call that computed it.
type pendingReplay struct {
	op    int
	root  int32
	q     od
	alt   bool
	cat   core.Category
	clone *core.Router // of the snapshot that answered
}

type replayQueue struct {
	items []pendingReplay
	head  int
}

func (rq *replayQueue) push(tr *tracer, cn *counts, p pendingReplay) {
	rq.items = append(rq.items, p)
	if len(rq.items)-rq.head > replayLag {
		rq.next(tr, cn)
	}
}

func (rq *replayQueue) flush(tr *tracer, cn *counts) {
	for rq.head < len(rq.items) {
		rq.next(tr, cn)
	}
}

func (rq *replayQueue) next(tr *tracer, cn *counts) {
	p := rq.items[rq.head]
	rq.head++
	if p.alt {
		id := tr.begin(lCoreRouteK, p.op, p.root)
		p.clone.RouteK(p.q.s, p.q.d, altK)
		tr.end(id)
		return
	}
	id := tr.begin(lCoreRoute, p.op, p.root)
	p.clone.Route(p.q.s, p.q.d)
	tr.end(id)
	cn.catNS[p.cat] += tr.dur(id)
	cn.catN[p.cat]++
}

// traceReads traces a read-only workload on the Go API. A computed
// answer is replayed with core.Router.Route on the client's own clone
// of the snapshot; a shared one has nothing under it to replay.
func (e env) traceReads(wd *world, sp spec, sched [][]op, vals map[string]float64) ([]*tracer, *counts, error) {
	dir, err := e.tempDir(sp.name + "-trace-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	eng, err := wd.loadEngine(sp, dir)
	if err != nil {
		return nil, nil, err
	}
	defer eng.Close()
	refs := newReferences(wd.road)

	tracers := make([]*tracer, len(sched))
	tallies := make([]*counts, len(sched))
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := range sched {
		tr, cn := newTracer(t0, 5*len(sched[c])/2), &counts{}
		tracers[c], tallies[c] = tr, cn
		clone, rf := eng.Snapshot().Clone(), refs.fork()
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rq replayQueue
			defer rq.flush(tr, cn)
			for i, o := range sched[c] {
				q := wd.pool[o.arg]
				root := tr.begin(lRoute, i, noParent)
				res, shared := eng.Route(q.s, q.d)
				tr.end(root)
				cn.results++
				cn.evidence[res.Evidence]++
				if shared {
					tr.spans[root].layer = lRouteHit
				} else {
					rq.push(tr, cn, pendingReplay{op: i, root: root, q: q, cat: res.Category, clone: clone})
				}
				if i%refEvery == 0 {
					rf.measure(tr, i, q, clone)
				}
				cn.attempted++
				if !validWalk(wd.road, res.Path, q, true) {
					cn.failed++
				}
			}
		}()
	}
	wg.Wait()
	customizeReference(tracers[0], refs.topo, wd.road)
	engineCounters(vals, eng)
	total := tallies[0]
	for _, cn := range tallies[1:] {
		total.merge(cn)
	}
	return tracers, total, nil
}

// customizeReference times one full metric customization of the
// hierarchy, the unit PrepareMetricsTouched pays per new preference.
func customizeReference(tr *tracer, topo *ch.Topology, road *roadnet.Graph) {
	id := tr.begin(lCHCustomize, 0, detached)
	topo.Customize(travelTime(road))
	tr.end(id)
}

// twin is a router lineage the harness advances in step with the
// engine's own: loaded from the same artifact and fed the same batches
// in the same order, it holds the state the engine's write path sees,
// with its own customized-metric table, so replaying a batch on it
// costs what the batch costs inside Engine.IngestMatched and changes
// nothing the engine reads.
type twin struct {
	wd         *world
	cur        *core.Router
	log        *wal.Log
	dir        string
	net        wal.NetworkID
	nextTrajID uint64
}

func (e env) newTwin(wd *world, name string) (*twin, error) {
	r, err := core.Load(bytes.NewReader(wd.artifact))
	if err != nil {
		return nil, err
	}
	r.EnableCH(ch.Config{})
	dir, err := e.tempDir(name + "-twin-*")
	if err != nil {
		return nil, err
	}
	net, err := wal.IdentityOf(wd.road)
	if err != nil {
		return nil, err
	}
	lg, _, err := wal.Open(dir, net, wal.SyncNone, 0, func(uint64, wal.Batch) error { return nil })
	if err != nil {
		return nil, err
	}
	return &twin{wd: wd, cur: r, log: lg, dir: dir, net: net}, nil
}

func (tw *twin) close() {
	tw.log.Close()
	os.RemoveAll(tw.dir)
}

// ingest replays one batch under parent: the write path's layers on
// the twin lineage, then AddPaths and the per-edge Learn calls that
// core.Router.Ingest hides, on a second clone of the same state.
func (tw *twin) ingest(tr *tracer, cn *counts, i int, parent int32, batch []*traj.Trajectory) error {
	before := tw.log.Size()
	id := tr.begin(lWALAppend, i, parent)
	_, err := tw.log.Append(wal.Batch{SkipMapMatching: true, Trajs: batch})
	tr.end(id)
	if err != nil {
		return err
	}
	cn.walBytes += tw.log.Size() - before
	cn.walTrajs += int64(len(batch))

	prev := tw.cur
	id = tr.begin(lIngestClone, i, parent)
	next := prev.IngestClone()
	tr.end(id)
	ingest := tr.begin(lCoreIngest, i, parent)
	st := next.Ingest(batch, core.IngestOptions{SkipMapMatching: true})
	tr.end(ingest)
	id = tr.begin(lPrepare, i, parent)
	cn.customized += int64(next.PrepareMetricsTouched(st.TouchedEdges))
	tr.end(id)
	tw.cur = next
	tw.nextTrajID += uint64(len(batch))

	inner := prev.IngestClone()
	paths := make([]roadnet.Path, 0, len(batch))
	for _, t := range batch {
		paths = append(paths, t.Truth)
	}
	id = tr.begin(lAddPaths, i, ingest)
	ust := inner.RegionGraph().AddPaths(paths, region.Options{})
	tr.end(id)
	cn.touched += int64(len(ust.TouchedEdges))
	learner := pref.NewLearner(tw.wd.road)
	for _, edge := range ust.TouchedEdges {
		re := inner.RegionGraph().EdgeForUpdate(edge)
		ps := make([]roadnet.Path, 0, len(re.PathsFwd)+len(re.PathsRev))
		for _, pi := range re.PathsFwd {
			ps = append(ps, pi.Path)
		}
		for _, pi := range re.PathsRev {
			ps = append(ps, pi.Path)
		}
		if len(ps) == 0 {
			continue
		}
		id = tr.begin(lLearn, i, ingest)
		learner.Learn(ps)
		tr.end(id)
		cn.learnPaths += int64(len(ps))
	}
	return nil
}

// checkpoint replays, under parent, the checkpoint the engine just
// paid: wal.WriteCheckpoint of the twin's state, and the Router.Save
// inside it on its own.
func (tw *twin) checkpoint(tr *tracer, cn *counts, i int, parent int32) error {
	ck := tr.begin(lCheckpoint, i, parent)
	err := wal.WriteCheckpoint(tw.dir, tw.cur.Clone(), tw.log.NextSeq(), tw.nextTrajID, tw.net)
	tr.end(ck)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	id := tr.begin(lSave, i, ck)
	err = tw.cur.Clone().Save(&buf)
	tr.end(id)
	cn.artifactB = int64(buf.Len())
	return err
}

// traceIngest traces ingest_stream: every Engine.IngestMatched is
// followed by its replay on the twin lineage, the restart is
// decomposed into load, hierarchy, checkpoint read and tail replay,
// and one maintenance rebuild runs on the final state.
func (e env) traceIngest(wd *world, sp spec, sched [][]op, vals map[string]float64) ([]*tracer, *counts, error) {
	dir, err := e.tempDir(sp.name + "-trace-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	eng, err := wd.loadEngine(sp, dir)
	if err != nil {
		return nil, nil, err
	}
	tw, err := e.newTwin(wd, sp.name)
	if err != nil {
		return nil, nil, err
	}
	defer tw.close()

	ops := sched[0]
	tr, cn := newTracer(time.Now(), 64*len(ops)), &counts{}
	for i, o := range ops {
		batch := wd.batches[o.arg]
		ckpts := eng.Stats().Durability.Checkpoints
		root := tr.begin(lServeIngest, i, noParent)
		st, _ := eng.IngestMatched(batch)
		tr.end(root)
		cn.attempted++
		if st.Paths != len(batch) {
			cn.failed++
		}
		if err := tw.ingest(tr, cn, i, root, batch); err != nil {
			return nil, nil, err
		}
		if eng.Stats().Durability.Checkpoints > ckpts {
			if err := tw.checkpoint(tr, cn, i, root); err != nil {
				return nil, nil, err
			}
		}
	}
	engineCounters(vals, eng)
	want := wd.answers(eng)
	final := eng.Snapshot()
	eng = nil // abandoned, not Closed

	root := tr.begin(lRestart, 0, noParent)
	re, err := wd.loadEngine(sp, dir)
	tr.end(root)
	if err != nil {
		return nil, nil, fmt.Errorf("restart: %w", err)
	}
	defer re.Close()
	cn.replayed = int64(re.Stats().Durability.ReplayedRecords)
	cn.attempted += len(want)
	cn.failed += wd.auditMismatches(want, re)
	if err := wd.replayRestart(tr, root, dir, ops[len(ops)-sp.tailOps:]); err != nil {
		return nil, nil, err
	}
	customizeReference(tr, ch.BuildTopology(wd.road), wd.road)

	id := tr.begin(lRebuild, 0, detached)
	rs := final.IngestClone().Retransduce(buildOptions)
	tr.end(id)
	vals["maint.rebuild_s"] = float64(tr.dur(id)) / 1e9
	vals["maint.learn_s"] = rs.LearnTime.Seconds()
	vals["maint.transfer_s"] = rs.TransferTime.Seconds()
	vals["maint.materialize_s"] = rs.MaterializeTime.Seconds()
	return []*tracer{tr}, cn, nil
}

// replayRestart decomposes the restart under parent: the artifact
// decode, the hierarchy contraction, the checkpoint read and the
// re-ingestion of each WAL tail record, each called on its own.
func (wd *world) replayRestart(tr *tracer, parent int32, dir string, tail []op) error {
	id := tr.begin(lLoad, 0, parent)
	base, err := core.Load(bytes.NewReader(wd.artifact))
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin(lReadCheckpoint, 0, parent)
	ckpt, ok, err := wal.ReadCheckpoint(dir)
	tr.end(id)
	if err != nil {
		return err
	}
	if ok {
		base = ckpt.Router
	}
	for _, o := range tail {
		if o.kind != opIngest {
			continue
		}
		id = tr.begin(lReplay, 0, parent)
		base.Ingest(wd.batches[o.arg], core.IngestOptions{SkipMapMatching: true})
		tr.end(id)
	}
	id = tr.begin(lEnableCH, 0, parent)
	base.EnableCH(ch.Config{})
	tr.end(id)
	return nil
}

// traceMixed traces mixed_handler with two engines fed the same ops:
// the handler's, whose ServeHTTP is the operation, and a twin driven
// through the Go API, whose call is what the handler's hides. Both
// caches see the same keys in the same order, so the twin hits exactly
// when the handler's engine does.
func (e env) traceMixed(wd *world, sp spec, sched [][]op, vals map[string]float64) ([]*tracer, *counts, error) {
	var engines [2]*serve.Engine
	for i := range engines {
		dir, err := e.tempDir(sp.name + "-trace-*")
		if err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(dir)
		if engines[i], err = wd.loadEngine(sp, dir); err != nil {
			return nil, nil, err
		}
		defer engines[i].Close()
	}
	front, back := engines[0], engines[1]
	ops := sched[0]
	hc := newHandlerClient(wd, front, ops, true)
	refs := newReferences(wd.road)
	clone := back.Snapshot().Clone()

	tr, cn := newTracer(time.Now(), 4*len(ops)), &counts{}
	var rq replayQueue
	afterSwap := false
	for i, o := range ops {
		l := lHandler
		if o.kind == opIngest {
			l = lHandlerPost
		}
		req := hc.nextRequest()
		root := tr.begin(l, i, noParent)
		hc.h.ServeHTTP(hc.rec, req)
		tr.end(root)
		cn.attempted++
		if !hc.check(o, 0).ok {
			cn.failed++
		}
		if o.kind == opIngest {
			id := tr.begin(lServeIngest, i, root)
			back.IngestMatched(wd.batches[o.arg])
			tr.end(id)
			clone = back.Snapshot().Clone()
			afterSwap = true
			continue
		}
		cn.jsonBytes += int64(hc.rec.body.Len())
		cn.responses++
		if afterSwap {
			cn.firstRead = append(cn.firstRead, tr.dur(root))
			afterSwap = false
		}
		q := wd.pool[o.arg]
		id := tr.begin(lRoute, i, root)
		var ans core.RouteResult
		var shared bool
		if o.kind == opAlt {
			var all []core.RouteResult
			all, shared = back.RouteK(q.s, q.d, altK)
			ans = all[0]
		} else {
			ans, shared = back.Route(q.s, q.d)
		}
		tr.end(id)
		cn.results++
		cn.evidence[ans.Evidence]++
		if shared {
			tr.spans[id].layer = lRouteHit
		} else {
			rq.push(tr, cn, pendingReplay{op: i, root: id, q: q, alt: o.kind == opAlt, cat: ans.Category, clone: clone})
		}
		if i%refEvery == 0 {
			refs.measure(tr, i, q, clone)
		}
	}
	rq.flush(tr, cn)
	customizeReference(tr, refs.topo, wd.road)
	engineCounters(vals, front)
	return []*tracer{tr}, cn, nil
}
