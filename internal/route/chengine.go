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

// MetricKey names a scalar or preference metric: weight W, restricted
// by slave mask Mask when it is non-zero.
type MetricKey struct {
	W    roadnet.Weight
	Mask SlaveMask
}

// metricKey identifies one customized metric: a scalar weight (mask 0),
// a preference-filtered weight (mask != 0), or a hash-interned custom
// cost function (custom != 0, w/mask unused).
type metricKey struct {
	w      roadnet.Weight
	mask   SlaveMask
	custom uint64
}

// maxCustomMetrics bounds the hash-interned custom-cost metrics kept
// customized at once; beyond it the oldest is dropped (FIFO) and would
// be re-customized on demand. Scalar and preference metrics are never
// evicted — their key space is tiny (weights × learned slave features).
const maxCustomMetrics = 8

// metricTable is the shared, metric-versioned side of a CCH engine: one
// immutable ch.Metric per key (its weights and a byte per arc and
// direction, 18 bytes per skeleton arc, indexing the topology's shared
// triangle table), behind an atomically swapped map so
// queries on any fork read lock-free while a writer customizes a new
// metric. Customization replaces the map, never a Metric in place —
// in-flight queries keep the version they loaded.
type metricTable struct {
	topo *ch.Topology

	mu      sync.Mutex // serializes writers (customizations)
	metrics atomic.Pointer[map[metricKey]*ch.Metric]
	customs []metricKey // FIFO of custom-cost keys, for eviction

	customized atomic.Uint64 // total customizations run (telemetry/tests)
}

func newMetricTable(topo *ch.Topology) *metricTable {
	t := &metricTable{topo: topo}
	m := make(map[metricKey]*ch.Metric)
	t.metrics.Store(&m)
	return t
}

// get returns the customized metric for k, or nil.
func (t *metricTable) get(k metricKey) *ch.Metric {
	return (*t.metrics.Load())[k]
}

// add publishes a metric for every key the table lacks, with one map
// swap: from(k) when from is non-nil and returns one (customized for k
// elsewhere over the same topology — adoption), the rest customized in
// one ch.Topology.CustomizeAll call under cost(k), a metric per core, so
// cost(k)'s functions must be safe to call concurrently. It returns the
// table it leaves, which holds every key, and how many metrics it added.
func (t *metricTable) add(keys []metricKey, from func(metricKey) *ch.Metric, cost func(metricKey) func(roadnet.EdgeID) float64) (map[metricKey]*ch.Metric, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := *t.metrics.Load() // holds what a writer this one waited for added
	var added []metricKey
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
	next := make(map[metricKey]*ch.Metric, len(old)+len(added))
	maps.Copy(next, old)
	for x, k := range added {
		next[k] = ms[x]
		if k.custom != 0 { // one at a time, so the oldest evicted is never k
			t.customs = append(t.customs, k)
			if len(t.customs) > maxCustomMetrics {
				delete(next, t.customs[0])
				t.customs = t.customs[1:]
			}
		}
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
// at +Inf), and custom cost functions (CustomRoute, hash-interned).
//
// Forks share the topology and the metric table; each fork owns one
// ch.MetricQuery scratch (allocated on first use, reused across queries
// AND across metrics: each query leaves its labels +Inf, as it found
// them) plus a small buffer for custom
// cost hashing. Customizing a new metric happens at most once per key,
// serialized on the table; queries never block on it unless they are
// the first to need that key. A pass fork customizes masked metrics
// into a private overlay (package doc, "Pass forks and adoption").
type CHEngine struct {
	g    *roadnet.Graph
	w    roadnet.Weight // base weight, pre-customized at build time
	topo *ch.Topology
	tab  *metricTable
	pass *metricTable // a pass fork's overlay; nil on every other fork
	out  []SlaveMask  // OutTypeMasks(g), which every masked metric's cost reads

	q       *ch.MetricQuery // lazy per-fork query scratch
	costBuf []float64       // lazy per-fork custom-cost staging buffer
}

// NewCHEngine wraps a prebuilt topology over g, customizing the base
// metric for w and the metrics of more in one ch.Topology.CustomizeAll
// call.
func NewCHEngine(g *roadnet.Graph, topo *ch.Topology, w roadnet.Weight, more ...MetricKey) *CHEngine {
	c := &CHEngine{g: g, w: w, topo: topo, tab: newMetricTable(topo), out: OutTypeMasks(g)}
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

// Weight returns the base weight customized at construction.
func (c *CHEngine) Weight() roadnet.Weight { return c.w }

// Customizations returns how many metric customizations the shared
// table has run since construction (including the base metric).
func (c *CHEngine) Customizations() uint64 { return c.tab.customized.Load() }

// Resident reports whether the shared table holds the ⟨w, mask⟩ metric.
func (c *CHEngine) Resident(w roadnet.Weight, mask SlaveMask) bool {
	return c.tab.get(metricKey{w: w, mask: mask}) != nil
}

// ResidentMetrics returns how many metrics the shared table holds.
func (c *CHEngine) ResidentMetrics() int { return len(*c.tab.metrics.Load()) }

// Fork implements PathEngine with ForkCH.
func (c *CHEngine) Fork() PathEngine { return c.ForkCH() }

// ForkCH returns an engine that shares the topology, the
// customized-metric table and, on a pass fork, the overlay; query state
// is allocated on first use.
func (c *CHEngine) ForkCH() *CHEngine {
	return &CHEngine{g: c.g, w: c.w, topo: c.topo, tab: c.tab, pass: c.pass, out: c.out}
}

// PassFork returns a fork for one bulk learning pass: a fork with a
// fresh private overlay for the masked metrics it customizes (see
// CHEngine). Fork it once per worker; drop it when the pass ends.
func (c *CHEngine) PassFork() *CHEngine {
	return &CHEngine{g: c.g, w: c.w, topo: c.topo, tab: c.tab, pass: newMetricTable(c.topo), out: c.out}
}

func (c *CHEngine) query() *ch.MetricQuery {
	if c.q == nil {
		c.q = ch.NewMetricQuery(c.topo)
	}
	return c.q
}

// cost is the customization cost function for a scalar or preference
// key: weight w with the slave mask applied — a masked-out edge costs
// +Inf exactly when its tail vertex has some mask-satisfying out-edge
// (Algorithm 2's case (i)); vertices with none relax everything (case
// (ii)).
func (c *CHEngine) cost(k metricKey) func(roadnet.EdgeID) float64 {
	g, w, mask := c.g, k.w, k.mask
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
	var need []metricKey // resident keys are skipped without the table's lock
	for _, k := range keys {
		if mk := (metricKey{w: k.W, mask: k.Mask}); c.tab.get(mk) == nil {
			need = append(need, mk)
		}
	}
	if len(need) == 0 {
		return 0
	}
	var from func(metricKey) *ch.Metric
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
	k := metricKey{w: w, mask: mask}
	t := c.tab
	if c.pass != nil && mask != 0 && t.get(k) == nil {
		t = c.pass
	}
	if m := t.get(k); m != nil {
		return m
	}
	tab, _ := t.add([]metricKey{k}, nil, c.cost)
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

// CustomRoute implements PathEngine on the hierarchy: the cost function
// is evaluated once per edge into a staging buffer, hashed, and the
// resulting metric interned in the shared table — repeated queries under
// the same cost function (the common pattern: a learned weighting
// queried many times) customize once and then pay only the buffer hash
// plus a CCH query. At most maxCustomMetrics distinct custom metrics
// stay resident.
func (c *CHEngine) CustomRoute(s, d roadnet.VertexID, cost func(roadnet.EdgeID) float64) (roadnet.Path, float64, bool) {
	if c.costBuf == nil {
		c.costBuf = make([]float64, c.g.NumEdges())
	}
	h := uint64(14695981039346656037) // FNV-64a offset basis
	for e := range c.costBuf {
		v := cost(roadnet.EdgeID(e))
		c.costBuf[e] = v
		bits := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (bits >> s) & 0xff
			h *= 1099511628211
		}
	}
	if h == 0 {
		h = 1 // keep the custom-key marker nonzero
	}
	buf := c.costBuf
	k := metricKey{custom: h}
	m := c.tab.get(k)
	if m == nil {
		tab, _ := c.tab.add([]metricKey{k}, nil, func(metricKey) func(roadnet.EdgeID) float64 {
			return func(e roadnet.EdgeID) float64 { return buf[e] }
		})
		m = tab[k]
	}
	return c.query().Route(m, s, d)
}
