package baseline

import (
	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/route"
)

// WebService simulates an external cost-centric routing service — the
// role Google Directions plays in the paper's Section VII-D comparison.
// It is an independent routing engine with its own tuned objective
// (travel time biased toward higher road classes, plus a fixed
// per-junction penalty) and, crucially, it answers with *way-point
// polylines* in plain coordinates rather than road-network paths, so the
// comparison must go through the band-matching geometry of Fig. 14, just
// like the real API comparison did.
type WebService struct {
	g   *roadnet.Graph
	eng *route.Engine
	// WaypointStepM is the way-point spacing of returned polylines
	// (default 80 m).
	WaypointStepM float64
}

// NewWebService returns the routing-service simulator over g.
func NewWebService(g *roadnet.Graph) *WebService {
	return &WebService{g: g, eng: route.NewEngine(g), WaypointStepM: 80}
}

// classBias is the service's preference multiplier per road class:
// a mainstream navigation stack mildly favors big roads and penalizes
// residential cut-throughs.
func classBias(t roadnet.RoadType) float64 {
	switch t {
	case roadnet.Motorway:
		return 0.90
	case roadnet.Trunk:
		return 0.94
	case roadnet.Primary:
		return 1.0
	case roadnet.Secondary:
		return 1.06
	case roadnet.Tertiary:
		return 1.12
	default:
		return 1.25
	}
}

// junctionPenaltySec is the fixed per-edge cost modelling signals and
// turns.
const junctionPenaltySec = 3.0

// Name identifies the simulator in reports.
func (w *WebService) Name() string { return "Google" }

// Directions returns the service's answer as a way-point sequence, or
// nil when unroutable.
func (w *WebService) Directions(s, d roadnet.VertexID) []geo.Point {
	path, _, ok := w.eng.CustomRoute(s, d, func(eid roadnet.EdgeID) float64 {
		ed := w.g.Edge(eid)
		return ed.TravelTime*classBias(ed.Type) + junctionPenaltySec
	})
	if !ok {
		return nil
	}
	return path.Polyline(w.g).Resample(w.WaypointStepM)
}

// Route implements Algorithm by snapping the service's way-points back
// onto the underlying path; used only where an edge path is required.
// The Fig. 13 comparison calls Directions and band-matches instead.
func (w *WebService) Route(q Query) roadnet.Path {
	path, _, _ := w.eng.CustomRoute(q.S, q.D, func(eid roadnet.EdgeID) float64 {
		ed := w.g.Edge(eid)
		return ed.TravelTime*classBias(ed.Type) + junctionPenaltySec
	})
	return path
}
