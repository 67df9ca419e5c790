package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// layer identifies the exported call a span was recorded around.
type layer uint8

const (
	lHandler        layer = iota // Engine.Handler().ServeHTTP, GET
	lHandlerPost                 // Engine.Handler().ServeHTTP, POST /ingest
	lRouteHit                    // Engine.Route/RouteK answered from the cache or a shared flight
	lRoute                       // Engine.Route/RouteK that computed
	lCoreRoute                   // core.Router.Route on a clone of the snapshot
	lCoreRouteK                  // core.Router.RouteK on a clone of the snapshot
	lServeIngest                 // Engine.IngestMatched
	lWALAppend                   // wal.Log.Append on a scratch log
	lIngestClone                 // core.Router.IngestClone on the twin lineage
	lCoreIngest                  // core.Router.Ingest on the twin lineage
	lAddPaths                    // region.Graph.AddPaths on a second clone
	lLearn                       // pref.Learner.Learn, one span per touched edge
	lPrepare                     // core.Router.PrepareMetricsTouched on the twin lineage
	lCheckpoint                  // wal.WriteCheckpoint into a scratch directory
	lSave                        // core.Router.Save
	lRestart                     // core.Load + serve.NewDurableEngine on the pass's directory
	lLoad                        // core.Load
	lEnableCH                    // core.Router.EnableCH
	lReadCheckpoint              // wal.ReadCheckpoint
	lReplay                      // core.Router.Ingest of one WAL tail record
	lFastest                     // route.CHEngine.Fastest, reference
	lRoutePref                   // route.CHEngine.RoutePref, reference
	lCHQuery                     // ch.MetricQuery.Route, reference
	lCHCustomize                 // ch.Topology.Customize, reference
	lRebuild                     // core.Router.Retransduce
	numLayers
)

var layerNames = [numLayers]string{
	"serve.handler", "serve.handler_post", "serve.route_hit", "serve.route",
	"core.route", "core.routek", "serve.ingest", "wal.append", "core.ingest_clone",
	"core.ingest", "region.add_paths", "pref.learn", "core.prepare_metrics",
	"wal.checkpoint", "core.save", "restart", "core.load", "core.enable_ch",
	"wal.read_checkpoint", "wal.replay", "route.fastest", "route.routepref",
	"ch.query", "ch.customize", "maint.rebuild",
}

const (
	noParent = -1 // an operation as the client issued it
	detached = -2 // a reference measurement outside every operation's tree
)

// span is one timed call. A child is either nested in its parent or a
// replay, on a clone, of work the parent's call hides; either way its
// duration is part of what the parent's duration is made of.
type span struct {
	id, parent, op int32
	layer          layer
	start, end     int64 // nanoseconds since the traced pass began
}

// tracer records spans in memory; one goroutine owns it.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(t0 time.Time, capacity int) *tracer {
	return &tracer{t0: t0, spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(l layer, op int, parent int32) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{id: id, parent: parent, op: int32(op), layer: l})
	t.spans[id].start = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int32) { t.spans[id].end = int64(time.Since(t.t0)) }

func (t *tracer) dur(id int32) int64 { return t.spans[id].end - t.spans[id].start }

// ledger sums the spans of a traced pass by layer.
type ledger struct {
	// total and count take every span of the layer: means.
	total, count [numLayers]int64
	// tree and children take only spans inside operations: tree is the
	// layer's time there; children, by the parent's layer, the time of
	// its child spans.
	tree, children [numLayers]int64
	roots, rootN   int64 // the operations themselves
}

func (lg *ledger) add(t *tracer) {
	inOp := make([]bool, len(t.spans)) // a parent always precedes its children
	for i, s := range t.spans {
		d := s.end - s.start
		lg.total[s.layer] += d
		lg.count[s.layer]++
		switch {
		case s.parent >= 0:
			inOp[i] = inOp[s.parent]
			if inOp[i] {
				lg.children[t.spans[s.parent].layer] += d
			}
		case s.parent == noParent && s.layer != lRestart:
			inOp[i] = true
			lg.roots += d
			lg.rootN++
		}
		if inOp[i] {
			lg.tree[s.layer] += d
		}
	}
}

// self is the layer's own time inside operations: its spans minus what
// their children cover, summed over the pass so that timing noise on
// single spans cancels. Replays that in total cost more than the calls
// they decompose would make it negative; it is clamped, and the excess
// is the ledger gap.
func (lg *ledger) self(l layer) int64 { return max(0, lg.tree[l]-lg.children[l]) }

// mean is the layer's mean span in microseconds.
func (lg *ledger) mean(l layer) float64 {
	if lg.count[l] == 0 {
		return 0
	}
	return float64(lg.total[l]) / float64(lg.count[l]) / 1e3
}

// gapPct is the distance between the sum of the layers' self times and
// the time of the operations they decompose, as a share of the latter.
// A layer's residual is itself a layer (serve.engine_self_us and the
// like), so the sum can only miss the operations by what replays
// over-explain; how much the replays leave unexplained is read from
// those residual layers.
func (lg *ledger) gapPct() float64 {
	if lg.roots == 0 {
		return 0
	}
	layers := int64(0)
	for l := layer(0); l < numLayers; l++ {
		layers += lg.self(l)
	}
	return 100 * float64(max(layers-lg.roots, lg.roots-layers)) / float64(lg.roots)
}

// traceFileSpans caps the spans written per tracer; the ledger always
// sums every span.
const traceFileSpans = 60000

// traceFile is the JSON written at exit. Each span is
// [id, parent, op, layer, start_ns, end_ns]; layer indexes Layers;
// parent is a span id of the same client, -1 for an operation as the
// client issued it, -2 for a reference measurement.
type traceFile struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Layers   []string     `json:"layers"`
	Dropped  int          `json:"spans_not_written"`
	Clients  [][][6]int64 `json:"clients"`
}

func (e env) writeTrace(sp spec, seed int64, tracers []*tracer) (string, error) {
	f := traceFile{Workload: sp.name, Seed: seed, Layers: layerNames[:]}
	for _, t := range tracers {
		n := min(len(t.spans), traceFileSpans)
		f.Dropped += len(t.spans) - n
		rows := make([][6]int64, n)
		for i, s := range t.spans[:n] {
			rows[i] = [6]int64{int64(s.id), int64(s.parent), int64(s.op), int64(s.layer), s.start, s.end}
		}
		f.Clients = append(f.Clients, rows)
	}
	data, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(e.scratch, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(e.scratch, "trace-"+sp.name+".json")
	return path, os.WriteFile(path, data, 0o644)
}
