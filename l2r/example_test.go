package l2r_test

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/roadnet"
	"repro/internal/traj"
	"repro/l2r"
)

// Example demonstrates the minimal build-and-route flow.
func Example() {
	road := roadnet.Generate(roadnet.Tiny(1))
	cfg := traj.D2Like(1, 400)
	trips := traj.NewSimulator(road, cfg).Run()
	train, test := traj.Split(trips, 0.75*cfg.HorizonSec)

	router, err := l2r.Build(road, train, l2r.Options{SkipMapMatching: true})
	if err != nil {
		fmt.Println("build failed:", err)
		return
	}
	q := test[0]
	res := router.Route(q.Source(), q.Destination())
	fmt.Println("built:", router.Stats().Regions > 0)
	fmt.Println("answered:", len(res.Path) > 0)
	fmt.Println("path connected:", res.Path.Valid(road))
	// Output:
	// built: true
	// answered: true
	// path connected: true
}

// ExampleRouter_Save demonstrates the artifact round trip: a loaded
// router answers exactly as the router that was saved.
func ExampleRouter_Save() {
	road := roadnet.Generate(roadnet.Tiny(2))
	cfg := traj.D2Like(2, 300)
	trips := traj.NewSimulator(road, cfg).Run()

	router, err := l2r.Build(road, trips, l2r.Options{SkipMapMatching: true})
	if err != nil {
		fmt.Println("build failed:", err)
		return
	}
	var artifact bytes.Buffer
	if err := router.Save(&artifact); err != nil {
		fmt.Println("save failed:", err)
		return
	}
	loaded, err := l2r.Load(&artifact)
	if err != nil {
		fmt.Println("load failed:", err)
		return
	}
	// A trip's own endpoints find its stored path; pairing its source
	// with another trip's destination needs the learned preferences.
	identical := true
	for i, t := range trips[:100] {
		for _, d := range []roadnet.VertexID{t.Destination(), trips[i+100].Destination()} {
			identical = identical && slices.Equal(loaded.Route(t.Source(), d).Path, router.Route(t.Source(), d).Path)
		}
	}
	fmt.Println("same regions:", loaded.Stats().Regions == router.Stats().Regions)
	fmt.Println("identical answers:", identical)
	// Output:
	// same regions: true
	// identical answers: true
}

// ExampleRouter_Ingest demonstrates incremental updates: fresh
// trajectories land in the built region graph without a rebuild.
func ExampleRouter_Ingest() {
	road := roadnet.Generate(roadnet.Tiny(3))
	cfg := traj.D2Like(3, 400)
	trips := traj.NewSimulator(road, cfg).Run()
	boot, fresh := trips[:300], trips[300:]

	router, err := l2r.Build(road, boot, l2r.Options{SkipMapMatching: true})
	if err != nil {
		fmt.Println("build failed:", err)
		return
	}
	st := router.Ingest(fresh, l2r.IngestOptions{SkipMapMatching: true})
	fmt.Println("ingested all:", st.Paths == len(fresh))
	fmt.Println("some B-edge upgraded to a T-edge:", st.UpgradedEdges > 0)
	fmt.Println("staleness in range:", st.StalenessRatio() >= 0 && st.StalenessRatio() <= 1)
	// Output:
	// ingested all: true
	// some B-edge upgraded to a T-edge: true
	// staleness in range: true
}

// ExampleRouter_RouteK demonstrates ranked alternative recommendations,
// the paper's plural "Recommended Paths" (Fig. 2): stored trajectory
// paths first, then cost-diverse ones.
func ExampleRouter_RouteK() {
	road := roadnet.Generate(roadnet.Tiny(4))
	cfg := traj.D2Like(4, 400)
	trips := traj.NewSimulator(road, cfg).Run()
	train, test := traj.Split(trips, 0.75*cfg.HorizonSec)

	router, err := l2r.Build(road, train, l2r.Options{SkipMapMatching: true})
	if err != nil {
		fmt.Println("build failed:", err)
		return
	}
	firstIsRoute, sToD, distinct, withAlternatives := true, true, true, 0
	for _, t := range test {
		s, d := t.Source(), t.Destination()
		alts := router.RouteK(s, d, 3)
		firstIsRoute = firstIsRoute && slices.Equal(alts[0].Path, router.Route(s, d).Path)
		for i, a := range alts {
			p := a.Path
			sToD = sToD && len(p) >= 2 && p[0] == s && p[len(p)-1] == d && p.Valid(road)
			for _, b := range alts[:i] {
				distinct = distinct && !slices.Equal(p, b.Path)
			}
		}
		if len(alts) > 1 {
			withAlternatives++
		}
	}
	fmt.Println("first result equals Route:", firstIsRoute)
	fmt.Println("every alternative runs from s to d:", sToD)
	fmt.Println("no path repeats:", distinct)
	fmt.Println("some query has alternatives:", withAlternatives > 0)
	// Output:
	// first result equals Route: true
	// every alternative runs from s to d: true
	// no path repeats: true
	// some query has alternatives: true
}

// ExampleBuildTimeAware demonstrates routing by traffic period (the
// paper's Section III, scope item 1): peak and off-peak routers are
// built from their own slices of the trips, and the departure period
// picks the one that answers.
func ExampleBuildTimeAware() {
	road := roadnet.Generate(roadnet.Tiny(5))
	cfg := traj.D2Like(5, 400)
	trips := traj.NewSimulator(road, cfg).Run()
	train, test := traj.Split(trips, 0.75*cfg.HorizonSec)

	ta, err := l2r.BuildTimeAware(road, train, l2r.Options{SkipMapMatching: true})
	if err != nil {
		fmt.Println("build failed:", err)
		return
	}
	fmt.Println("one router per period:", ta.Peak != ta.OffPeak)
	for _, peak := range []bool{true, false} {
		valid := true
		for _, t := range test {
			s, d := t.Source(), t.Destination()
			p := ta.Route(s, d, peak).Path
			valid = valid && len(p) >= 2 && p[0] == s && p[len(p)-1] == d && p.Valid(road)
		}
		fmt.Printf("peak=%v paths valid: %v\n", peak, valid)
	}
	// Output:
	// one router per period: true
	// peak=true paths valid: true
	// peak=false paths valid: true
}

// ExampleEngine demonstrates the online serving engine: each Ingest
// publishes a new snapshot generation, and the route cache answers
// from the generation it was filled at.
func ExampleEngine() {
	road := roadnet.Generate(roadnet.Tiny(6))
	cfg := traj.D2Like(6, 400)
	trips := traj.NewSimulator(road, cfg).Run()
	train, live := traj.Split(trips, 0.75*cfg.HorizonSec)

	router, err := l2r.Build(road, train, l2r.Options{SkipMapMatching: true})
	if err != nil {
		fmt.Println("build failed:", err)
		return
	}
	engine := l2r.NewEngine(router, l2r.ServeOptions{})
	ods := live[:20]
	for _, t := range ods {
		engine.Route(t.Source(), t.Destination()) // cached at generation 1
	}
	const batches = 3
	for b := range batches {
		engine.Ingest(live[len(live)*b/batches : len(live)*(b+1)/batches])
	}
	cached, same := 0, true
	for _, t := range ods {
		s, d := t.Source(), t.Destination()
		engine.Route(s, d) // a new generation misses, then caches
		res, hit := engine.Route(s, d)
		if hit {
			cached++
		}
		same = same && slices.Equal(res.Path, engine.Snapshot().Route(s, d).Path)
	}
	fmt.Println("generation:", engine.Generation())
	fmt.Println("ingests:", engine.Stats().Ingests)
	fmt.Printf("repeat queries cached: %d/%d\n", cached, len(ods))
	fmt.Println("cached answers equal the router's:", same)
	// Output:
	// generation: 4
	// ingests: 3
	// repeat queries cached: 20/20
	// cached answers equal the router's: true
}
