package route

import (
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/ch"
	"repro/internal/roadnet"
)

// SlaveMask is the comparable identity of a SlavePredicate: bit t is set
// iff the predicate admits road type t. It keys customized metrics where
// the predicate itself (a func value) cannot. Zero is the nil predicate;
// a predicate admitting no road type also maps to zero, which is
// correct — Algorithm 2 with an unsatisfiable slave restricts nothing,
// because no vertex has a satisfying out-edge.
type SlaveMask uint32

// MaskOf probes slave over every road type to recover its mask. A
// SlavePredicate is a pure function of the road type, so the mask
// captures it exactly.
func MaskOf(slave SlavePredicate) SlaveMask {
	if slave == nil {
		return 0
	}
	var m SlaveMask
	for t := roadnet.RoadType(0); t < roadnet.NumRoadTypes; t++ {
		if slave(t) {
			m |= 1 << t
		}
	}
	return m
}

// OutTypeMasks returns, per vertex, the set of road types among its
// out-edges. It is the whole of Algorithm 2's slave restriction in
// table form: under mask m, edge u→v is forbidden exactly when
// out[u]&m != 0 (some out-edge of u satisfies the preference, case (i))
// and m&(1<<type(u→v)) == 0. The table depends only on the graph, so
// one serves every mask — Engine's masked relax, the CCH masked cost
// function and the preference learner's pruning rules all read it.
func OutTypeMasks(g *roadnet.Graph) []SlaveMask {
	out := make([]SlaveMask, g.NumVertices())
	for v := range out {
		for _, e := range g.Out(roadnet.VertexID(v)) {
			out[v] |= 1 << g.Edge(e).Type
		}
	}
	return out
}

// MetricKey names one customized metric: weight W, restricted by slave
// mask Mask when it is non-zero.
type MetricKey struct {
	W    roadnet.Weight
	Mask SlaveMask
}

// metricTable is the shared, metric-versioned side of a CCH engine: one
// immutable ch.Metric per key (its weights and a byte per arc and
// direction, 18 bytes per skeleton arc, indexing the topology's shared
// triangle table), behind an atomically swapped map so
// queries on any fork read lock-free while a writer customizes a new
// metric. Customization replaces the map, never a Metric in place —
// in-flight queries keep the version they loaded. A resident metric is
// never dropped: the key space is tiny (weights × slave masks).
type metricTable struct {
	topo *ch.Topology

	mu      sync.Mutex // serializes writers (customizations)
	metrics atomic.Pointer[map[MetricKey]*ch.Metric]

	customized atomic.Uint64 // total customizations run (telemetry/tests)
}

func newMetricTable(topo *ch.Topology) *metricTable {
	t := &metricTable{topo: topo}
	m := make(map[MetricKey]*ch.Metric)
	t.metrics.Store(&m)
	return t
}

// get returns the customized metric for k, or nil.
func (t *metricTable) get(k MetricKey) *ch.Metric {
	return (*t.metrics.Load())[k]
}

// add publishes a metric for every key the table lacks, with one map
// swap: from(k) when from is non-nil and returns one (customized for k
// elsewhere over the same topology — adoption), the rest customized in
// one ch.Topology.CustomizeAll call under cost(k), a metric per core, so
// cost(k)'s functions must be safe to call concurrently. It returns the
// table it leaves, which holds every key, and how many metrics it added.
func (t *metricTable) add(keys []MetricKey, from func(MetricKey) *ch.Metric, cost func(MetricKey) func(roadnet.EdgeID) float64) (map[MetricKey]*ch.Metric, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := *t.metrics.Load() // holds what a writer this one waited for added
	var added []MetricKey
	var ms []*ch.Metric // added's metrics
	var sweep []int     // indexes into added of the metrics to customize
	var costs []func(roadnet.EdgeID) float64
	for _, k := range keys {
		if old[k] != nil || slices.Contains(added, k) {
			continue
		}
		var m *ch.Metric
		if from != nil {
			m = from(k)
		}
		if m == nil {
			sweep = append(sweep, len(added))
			costs = append(costs, cost(k))
		}
		added, ms = append(added, k), append(ms, m)
	}
	if len(added) == 0 {
		return old, 0
	}
	for x, m := range t.topo.CustomizeAll(costs) {
		ms[sweep[x]] = m
	}
	t.customized.Add(uint64(len(costs)))
	next := make(map[MetricKey]*ch.Metric, len(old)+len(added))
	maps.Copy(next, old)
	for x, k := range added {
		next[k] = ms[x]
	}
	t.metrics.Store(&next)
	return next, len(added)
}

// CHEngine is a PathEngine over a customizable contraction hierarchy:
// the road network is contracted once, metric-independently, and every
// query family then rides the shared skeleton under its own customized
// metric — scalar weights (Route/Fastest/Shortest), Algorithm 2
// preference searches (RoutePref: the slave restriction depends only on
// each vertex's static out-edge types, so it is exactly Dijkstra over a
// statically filtered edge set, i.e. a fixed metric with forbidden edges
// at +Inf).
//
// Forks share the topology and the metric table; each fork owns one
// ch.MetricQuery scratch (allocated on first use, reused across queries
// AND across metrics: each query leaves its labels +Inf, as it found
// them). Customizing a new metric happens at most once per key,
// serialized on the table; queries never block on it unless they are
// the first to need that key. A pass fork customizes masked metrics
// into a private overlay (package doc, "Pass forks and adoption").
type CHEngine struct {
	g    *roadnet.Graph
	topo *ch.Topology
	tab  *metricTable
	pass *metricTable // a pass fork's overlay; nil on every other fork
	out  []SlaveMask  // OutTypeMasks(g), which every masked metric's cost reads

	q *ch.MetricQuery // lazy per-fork query scratch
}

// NewCHEngine wraps a prebuilt topology over g, customizing the base
// metric for w and the metrics of more in one ch.Topology.CustomizeAll
// call.
func NewCHEngine(g *roadnet.Graph, topo *ch.Topology, w roadnet.Weight, more ...MetricKey) *CHEngine {
	c := &CHEngine{g: g, topo: topo, tab: newMetricTable(topo), out: OutTypeMasks(g)}
	c.PrepareAll(append([]MetricKey{{W: w}}, more...))
	return c
}

// BuildCHEngine contracts the CCH topology for g and customizes the
// base metric for w. Contraction is metric-independent and ch.Config is
// empty; the parameter keeps the signature callers name. Build once,
// Fork per goroutine.
func BuildCHEngine(g *roadnet.Graph, w roadnet.Weight, _ ch.Config) *CHEngine {
	return NewCHEngine(g, ch.BuildTopology(g), w)
}

// Graph implements PathEngine.
func (c *CHEngine) Graph() *roadnet.Graph { return c.g }

// Topology returns the shared contraction skeleton.
func (c *CHEngine) Topology() *ch.Topology { return c.topo }

// Shortcuts returns the number of pure-shortcut skeleton edges.
func (c *CHEngine) Shortcuts() int { return c.topo.Shortcuts() }

// Customizations returns how many metric customizations the shared
// table has run since construction (including the base metric).
func (c *CHEngine) Customizations() uint64 { return c.tab.customized.Load() }

// Resident reports whether the shared table holds the ⟨w, mask⟩ metric.
func (c *CHEngine) Resident(w roadnet.Weight, mask SlaveMask) bool {
	return c.tab.get(MetricKey{W: w, Mask: mask}) != nil
}

// ResidentMetrics returns how many metrics the shared table holds.
func (c *CHEngine) ResidentMetrics() int { return len(*c.tab.metrics.Load()) }

// Fork implements PathEngine with ForkCH.
func (c *CHEngine) Fork() PathEngine { return c.ForkCH() }

// ForkCH returns an engine that shares the topology, the
// customized-metric table and, on a pass fork, the overlay; query state
// is allocated on first use.
func (c *CHEngine) ForkCH() *CHEngine {
	return &CHEngine{g: c.g, topo: c.topo, tab: c.tab, pass: c.pass, out: c.out}
}

// PassFork returns a fork for one bulk learning pass: a fork with a
// fresh private overlay for the masked metrics it customizes (see
// CHEngine). Fork it once per worker; drop it when the pass ends.
func (c *CHEngine) PassFork() *CHEngine {
	return &CHEngine{g: c.g, topo: c.topo, tab: c.tab, pass: newMetricTable(c.topo), out: c.out}
}

func (c *CHEngine) query() *ch.MetricQuery {
	if c.q == nil {
		c.q = ch.NewMetricQuery(c.topo)
	}
	return c.q
}

// cost is the customization cost function for a key: weight w with
// the slave mask applied — a masked-out edge costs +Inf exactly when
// its tail vertex has some mask-satisfying out-edge (Algorithm 2's case
// (i)); vertices with none relax everything (case (ii)).
func (c *CHEngine) cost(k MetricKey) func(roadnet.EdgeID) float64 {
	g, w, mask := c.g, k.W, k.Mask
	if mask == 0 {
		return func(e roadnet.EdgeID) float64 { return g.EdgeWeight(e, w) }
	}
	out, inf := c.out, math.Inf(1)
	return func(e roadnet.EdgeID) float64 {
		ed := g.Edge(e)
		if out[ed.From]&mask != 0 && mask&(1<<ed.Type) == 0 {
			return inf
		}
		return g.EdgeWeight(e, w)
	}
}

// PrepareAll ensures the shared table holds the metric for every key,
// returning how many it added now. On a pass fork the overlay's metrics
// are adopted first; the rest are customized in one CustomizeAll call
// (a metric per core), and all are
// published with one swap of the table. The serving layer calls it on
// the ingest path so queries never pay customization inline.
func (c *CHEngine) PrepareAll(keys []MetricKey) int {
	var need []MetricKey // resident keys are skipped without the table's lock
	for _, k := range keys {
		if c.tab.get(k) == nil {
			need = append(need, k)
		}
	}
	if len(need) == 0 {
		return 0
	}
	var from func(MetricKey) *ch.Metric
	if c.pass != nil {
		from = c.pass.get
	}
	_, added := c.tab.add(need, from, c.cost)
	return added
}

// metric returns the (w, mask) metric, customizing it if no table holds
// it: into the overlay for a pass fork's masked metrics, else into the
// shared table.
func (c *CHEngine) metric(w roadnet.Weight, mask SlaveMask) *ch.Metric {
	k := MetricKey{W: w, Mask: mask}
	t := c.tab
	if c.pass != nil && mask != 0 && t.get(k) == nil {
		t = c.pass
	}
	if m := t.get(k); m != nil {
		return m
	}
	tab, _ := t.add([]MetricKey{k}, nil, c.cost)
	return tab[k]
}

// TryAppendRouteMask is Engine.AppendRouteMask on the hierarchy, run
// only when it adds no resident metric: when the shared table holds the
// ⟨w, mask⟩ metric or, on a pass fork, always (customizing into the
// overlay). answered is false, and dst returned untouched, otherwise.
// Both engines return a shortest path of the same restricted subgraph,
// so the paths agree unless two of them tie exactly.
func (c *CHEngine) TryAppendRouteMask(dst roadnet.Path, s, d roadnet.VertexID, w roadnet.Weight, mask SlaveMask) (path roadnet.Path, cost float64, ok, answered bool) {
	if c.pass == nil && !c.Resident(w, mask) {
		return dst, 0, false, false
	}
	path, cost, ok = c.query().AppendRoute(dst, c.metric(w, mask), s, d)
	return path, cost, ok, true
}

// Route implements PathEngine: every scalar weight is a customized
// metric over the shared skeleton.
func (c *CHEngine) Route(s, d roadnet.VertexID, w roadnet.Weight) (roadnet.Path, float64, bool) {
	return c.query().Route(c.metric(w, 0), s, d)
}

// AppendRoute implements PathEngine.
func (c *CHEngine) AppendRoute(dst roadnet.Path, s, d roadnet.VertexID, w roadnet.Weight) (roadnet.Path, float64, bool) {
	return c.query().AppendRoute(dst, c.metric(w, 0), s, d)
}

// Fastest implements PathEngine.
func (c *CHEngine) Fastest(s, d roadnet.VertexID) (roadnet.Path, float64, bool) {
	return c.Route(s, d, roadnet.TT)
}

// Shortest implements PathEngine.
func (c *CHEngine) Shortest(s, d roadnet.VertexID) (roadnet.Path, float64, bool) {
	return c.Route(s, d, roadnet.DI)
}

// RoutePref implements PathEngine. The slave predicate is probed into
// its road-type mask and the query runs on the (w, mask) customized
// metric — same costs as Algorithm 2's modified Dijkstra, settled on
// the hierarchy.
func (c *CHEngine) RoutePref(s, d roadnet.VertexID, w roadnet.Weight, slave SlavePredicate) (roadnet.Path, float64, bool) {
	return c.query().Route(c.metric(w, MaskOf(slave)), s, d)
}
