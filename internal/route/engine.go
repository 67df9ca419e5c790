package route

import "repro/internal/roadnet"

// PathEngine is the pluggable shortest-path backend the routing
// consumers outside core.Router program against: the preference
// learner, the baselines, the trajectory simulator and the experiment
// harness. Two implementations ship — the plain Dijkstra Engine and
// the contraction-hierarchy CHEngine, which core.Router always runs
// on — and the interface is the seam future speed-up techniques (CRP,
// hub labels) plug into.
//
// Concurrency contract: a PathEngine owns mutable per-query state and
// is NOT safe for concurrent use. Fork returns a sibling engine that
// shares all immutable built state (the road network and, for CHEngine,
// the contraction hierarchy) but has independent query state; one fork
// per goroutine is the concurrency model. Fork is cheap — query buffers
// are allocated lazily on first use, so forking for a pool costs a
// small struct, not per-vertex arrays.
type PathEngine interface {
	// Graph returns the underlying road network.
	Graph() *roadnet.Graph
	// Fork returns an engine over the same immutable built state with
	// fresh, lazily allocated query state, for use by another goroutine.
	Fork() PathEngine
	// Route returns the minimum-cost path from s to d under scalar
	// weight w, its cost, and whether d is reachable.
	Route(s, d roadnet.VertexID, w roadnet.Weight) (roadnet.Path, float64, bool)
	// AppendRoute is Route with the path appended to a caller-owned
	// buffer (returned unchanged when d is unreachable): callers that
	// only inspect each path before the next query — the preference
	// learner — allocate nothing per query.
	AppendRoute(dst roadnet.Path, s, d roadnet.VertexID, w roadnet.Weight) (roadnet.Path, float64, bool)
	// Fastest returns the minimum-travel-time path.
	Fastest(s, d roadnet.VertexID) (roadnet.Path, float64, bool)
	// Shortest returns the minimum-distance path.
	Shortest(s, d roadnet.VertexID) (roadnet.Path, float64, bool)
	// RoutePref is the paper's Algorithm 2: minimize the master weight
	// while the slave predicate restricts expansion. A nil slave gives
	// classical Dijkstra under w.
	RoutePref(s, d roadnet.VertexID, w roadnet.Weight, slave SlavePredicate) (roadnet.Path, float64, bool)
}

var (
	_ PathEngine = (*Engine)(nil)
	_ PathEngine = (*CHEngine)(nil)
)
