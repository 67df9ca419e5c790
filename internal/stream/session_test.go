package stream

import (
	"sync"
	"testing"

	"repro/internal/roadnet"
	"repro/internal/route"
	"repro/internal/traj"
)

// capture collects emitted trajectories per vehicle.
type capture struct {
	mu  sync.Mutex
	got map[string][]*traj.Trajectory
}

func newCapture() *capture { return &capture{got: make(map[string][]*traj.Trajectory)} }

func (c *capture) emit(v string, t *traj.Trajectory) {
	c.mu.Lock()
	c.got[v] = append(c.got[v], t)
	c.mu.Unlock()
}

func (c *capture) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, ts := range c.got {
		n += len(ts)
	}
	return n
}

// gridWorld returns an 8x8 grid and a sessionizer over it.
func gridWorld(t *testing.T, cfg Config) (*roadnet.Graph, *Sessionizer, *capture) {
	t.Helper()
	g := roadnet.GenerateGrid(8, 8, 120, roadnet.Tertiary)
	c := newCapture()
	return g, NewSessionizer(g, nil, cfg, c.emit), c
}

// walkPoints emits clean GPS points for vehicle along the shortest
// path from src to dst: one point every stepS seconds at ~10 m/s,
// starting at t0. The returned points are time-ordered.
func walkPoints(t *testing.T, g *roadnet.Graph, src, dst roadnet.VertexID, vehicle string, t0 float64) []Point {
	t.Helper()
	path, _, ok := route.NewEngine(g).Shortest(src, dst)
	if !ok {
		t.Fatalf("no path %d->%d", src, dst)
	}
	const speedMS, stepS = 10.0, 2.0
	pl := path.Polyline(g).Resample(speedMS * stepS)
	out := make([]Point, len(pl))
	for i, p := range pl {
		out[i] = Point{Vehicle: vehicle, T: t0 + float64(i)*stepS, X: p.X, Y: p.Y}
	}
	return out
}

func soleTrajectory(t *testing.T, c *capture, vehicle string) *traj.Trajectory {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.got[vehicle]) != 1 {
		t.Fatalf("vehicle %s emitted %d trajectories, want 1", vehicle, len(c.got[vehicle]))
	}
	return c.got[vehicle][0]
}

func TestSessionSingleTripInOrder(t *testing.T) {
	g, sz, c := gridWorld(t, Config{})
	pts := walkPoints(t, g, 0, 63, "v1", 0)
	sz.PushAll(pts)
	if got := sz.ActiveSessions(); got != 1 {
		t.Fatalf("active sessions = %d want 1", got)
	}
	sz.CloseVehicle("v1")
	tr := soleTrajectory(t, c, "v1")
	if len(tr.Records) != len(pts) {
		t.Fatalf("records = %d want %d (all points accepted)", len(tr.Records), len(pts))
	}
	if len(tr.Matched) < 2 || !tr.Matched.Valid(g) {
		t.Fatalf("matched path invalid: %v", tr.Matched)
	}
	if sz.ActiveSessions() != 0 {
		t.Fatal("session not forgotten after close")
	}
}

// TestSessionOutOfOrderWithinWindow: displacements smaller than the
// reorder window are repaired — the emitted trajectory is identical to
// the in-order run.
func TestSessionOutOfOrderWithinWindow(t *testing.T) {
	g, sz, c := gridWorld(t, Config{})
	pts := walkPoints(t, g, 0, 63, "v1", 0)
	if len(pts) < 20 {
		t.Fatal("walk too short to shuffle")
	}
	shuffled := append([]Point(nil), pts...)
	for i := 3; i+1 < len(shuffled); i += 7 {
		shuffled[i], shuffled[i+1] = shuffled[i+1], shuffled[i]
	}
	sz.PushAll(shuffled)
	sz.CloseVehicle("v1")
	tr := soleTrajectory(t, c, "v1")
	if len(tr.Records) != len(pts) {
		t.Fatalf("records = %d want %d", len(tr.Records), len(pts))
	}
	for i := 1; i < len(tr.Records); i++ {
		if tr.Records[i].T <= tr.Records[i-1].T {
			t.Fatalf("records not time-ordered at %d", i)
		}
	}
	if st := sz.Stats(); st.PointsLate != 0 {
		t.Fatalf("late drops = %d want 0 (disorder fits the window)", st.PointsLate)
	}

	// Reference: the same points in order through a fresh sessionizer.
	ref := newCapture()
	sz2 := NewSessionizer(g, nil, Config{}, ref.emit)
	sz2.PushAll(pts)
	sz2.CloseVehicle("v1")
	want := ref.got["v1"][0].Matched
	if len(want) != len(tr.Matched) {
		t.Fatalf("matched path differs from in-order run: %v vs %v", tr.Matched, want)
	}
	for i := range want {
		if want[i] != tr.Matched[i] {
			t.Fatalf("matched path differs from in-order run at %d", i)
		}
	}
}

// TestSessionOutOfOrderBeyondWindow: a point delivered after its slot
// left the reorder window is dropped and counted, without corrupting
// the session.
func TestSessionOutOfOrderBeyondWindow(t *testing.T) {
	g, sz, c := gridWorld(t, Config{})
	pts := walkPoints(t, g, 0, 63, "v1", 0)
	if len(pts) < 30 {
		t.Fatal("walk too short")
	}
	late := pts[10]
	reordered := append([]Point(nil), pts[:10]...)
	reordered = append(reordered, pts[11:25]...) // 14 > reorderWindow
	reordered = append(reordered, late)
	reordered = append(reordered, pts[25:]...)
	sz.PushAll(reordered)
	sz.CloseVehicle("v1")
	tr := soleTrajectory(t, c, "v1")
	if len(tr.Records) != len(pts)-1 {
		t.Fatalf("records = %d want %d (late point dropped)", len(tr.Records), len(pts)-1)
	}
	if st := sz.Stats(); st.PointsLate != 1 {
		t.Fatalf("late drops = %d want 1", st.PointsLate)
	}
	if len(tr.Matched) < 2 || !tr.Matched.Valid(g) {
		t.Fatalf("matched path invalid after late drop: %v", tr.Matched)
	}
}

// TestSessionExactDuplicatesDropped: replayed points with identical
// (t, x, y) are absorbed, whether they repeat a buffered point or the
// one just advanced.
func TestSessionExactDuplicatesDropped(t *testing.T) {
	g, sz, c := gridWorld(t, Config{})
	pts := walkPoints(t, g, 0, 63, "v1", 0)
	dups := 0
	for i, p := range pts {
		sz.Push(p)
		if i%5 == 0 {
			sz.Push(p) // exact duplicate
			dups++
		}
	}
	sz.CloseVehicle("v1")
	tr := soleTrajectory(t, c, "v1")
	if len(tr.Records) != len(pts) {
		t.Fatalf("records = %d want %d (duplicates dropped)", len(tr.Records), len(pts))
	}
	if st := sz.Stats(); st.PointsDuplicate != uint64(dups) {
		t.Fatalf("duplicate drops = %d want %d", st.PointsDuplicate, dups)
	}
	_ = g
}

// TestSessionSinglePointDropped: one fix is not evidence of traversal;
// the closed segment must be dropped, not ingested.
func TestSessionSinglePointDropped(t *testing.T) {
	g, sz, c := gridWorld(t, Config{})
	p := g.Point(0)
	sz.Push(Point{Vehicle: "v1", T: 10, X: p.X, Y: p.Y})
	sz.CloseVehicle("v1")
	if c.count() != 0 {
		t.Fatalf("single-point session emitted %d trajectories", c.count())
	}
	st := sz.Stats()
	if st.SegmentsClosed != 1 || st.SegmentsDropped != 1 {
		t.Fatalf("segments closed=%d dropped=%d, want 1/1", st.SegmentsClosed, st.SegmentsDropped)
	}
}

// TestSessionGapSplits: a silence longer than GapS ends the trip; the
// vehicle's next point starts a new one.
func TestSessionGapSplits(t *testing.T) {
	g, sz, c := gridWorld(t, Config{GapS: 120})
	a := walkPoints(t, g, 0, 7, "v1", 0)
	b := walkPoints(t, g, 7, 63, "v1", a[len(a)-1].T+600) // 600s > 120s gap
	sz.PushAll(a)
	sz.PushAll(b)
	sz.CloseVehicle("v1")
	c.mu.Lock()
	n := len(c.got["v1"])
	c.mu.Unlock()
	if n != 2 {
		t.Fatalf("gap produced %d trajectories, want 2", n)
	}
	for i, tr := range c.got["v1"] {
		if len(tr.Matched) < 2 || !tr.Matched.Valid(g) {
			t.Fatalf("segment %d matched path invalid", i)
		}
	}
}

// TestSessionGapSplitTooShortDropped: gap-split fragments that match
// fewer than 2 vertices (here: points far from every road) are
// dropped, not ingested.
func TestSessionGapSplitTooShortDropped(t *testing.T) {
	g, sz, c := gridWorld(t, Config{GapS: 120})
	// Fragment 1: off-road points — no candidates, matches nothing.
	sz.Push(Point{Vehicle: "v1", T: 0, X: 1e7, Y: 1e7})
	sz.Push(Point{Vehicle: "v1", T: 5, X: 1e7 + 40, Y: 1e7})
	// Fragment 2 (after the gap): a real trip.
	b := walkPoints(t, g, 0, 63, "v1", 1000)
	sz.PushAll(b)
	sz.CloseVehicle("v1")
	tr := soleTrajectory(t, c, "v1")
	if !tr.Matched.Valid(g) {
		t.Fatal("surviving segment invalid")
	}
	if st := sz.Stats(); st.SegmentsDropped != 1 {
		t.Fatalf("dropped segments = %d want 1 (the unmatchable fragment)", st.SegmentsDropped)
	}
}

// TestSessionTeleportSplits: two consecutive far points are a
// relocation and split the segment; a lone far spike is dropped.
func TestSessionTeleportSplits(t *testing.T) {
	g, sz, c := gridWorld(t, Config{})
	a := walkPoints(t, g, 0, 2, "v1", 0)
	// Jump to the far corner (~1100 m in 2 s >> 70 m/s) and keep going.
	b := walkPoints(t, g, 63, 61, "v1", a[len(a)-1].T+2)
	sz.PushAll(a)
	sz.PushAll(b)
	sz.CloseVehicle("v1")
	c.mu.Lock()
	n := len(c.got["v1"])
	c.mu.Unlock()
	if n != 2 {
		t.Fatalf("teleport produced %d trajectories, want 2", n)
	}
	if st := sz.Stats(); st.PointsOutlier == 0 {
		t.Fatal("teleport not counted as outlier")
	}

	// A lone spike: dropped, no split.
	sz2cap := newCapture()
	sz2 := NewSessionizer(g, nil, Config{}, sz2cap.emit)
	pts := walkPoints(t, g, 0, 63, "v2", 0)
	spiked := append([]Point(nil), pts[:12]...)
	spike := pts[12]
	spike.X += 5000 // one bad fix
	spiked = append(spiked, spike)
	spiked = append(spiked, pts[13:]...)
	sz2.PushAll(spiked)
	sz2.CloseVehicle("v2")
	sz2cap.mu.Lock()
	n2 := len(sz2cap.got["v2"])
	recs := len(sz2cap.got["v2"][0].Records)
	sz2cap.mu.Unlock()
	if n2 != 1 {
		t.Fatalf("spike produced %d trajectories, want 1", n2)
	}
	if recs != len(pts)-1 {
		t.Fatalf("records = %d want %d (spike dropped)", recs, len(pts)-1)
	}
}

// TestSessionDwellSplits: a long stationary period ends the trip;
// movement afterwards starts a new one.
func TestSessionDwellSplits(t *testing.T) {
	g, sz, c := gridWorld(t, Config{})
	a := walkPoints(t, g, 0, 7, "v1", 0)
	sz.PushAll(a)
	// Park at the destination for 300 s (> dwellS), jittering a few
	// meters (< dwellRadiusM) every 10 s.
	end := a[len(a)-1]
	tpark := end.T
	for i := 1; i <= 30; i++ {
		tpark = end.T + float64(i)*10
		dx := float64(i%2)*6 - 3
		sz.Push(Point{Vehicle: "v1", T: tpark, X: end.X + dx, Y: end.Y + dx})
	}
	// Drive off again.
	b := walkPoints(t, g, 7, 56, "v1", tpark+10)
	sz.PushAll(b)
	sz.CloseVehicle("v1")
	c.mu.Lock()
	n := len(c.got["v1"])
	c.mu.Unlock()
	if n != 2 {
		t.Fatalf("dwell produced %d trajectories, want 2", n)
	}
	for i, tr := range c.got["v1"] {
		if len(tr.Matched) < 2 || !tr.Matched.Valid(g) {
			t.Fatalf("segment %d matched path invalid", i)
		}
	}
}

// TestSessionOutlierDoesNotLeakAcrossGap: a noise spike held as a
// teleport outlier at the end of one trip must not survive the gap
// and corrupt segmentation of the next trip (regression: a stale
// pendingOut made a post-gap spike look like a "relocation" back to
// the previous trip's coordinates).
func TestSessionOutlierDoesNotLeakAcrossGap(t *testing.T) {
	g, sz, c := gridWorld(t, Config{GapS: 120})
	a := walkPoints(t, g, 0, 7, "v1", 0)
	spikeA := a[len(a)-1]
	spikeA.T += 2
	spikeA.X += 5000 // held as outlier, never confirmed
	sz.PushAll(a)
	sz.Push(spikeA)
	// New trip after the gap, with its own early spike.
	b := walkPoints(t, g, 56, 63, "v1", spikeA.T+600)
	spikeB := b[2]
	spikeB.X += 5000
	withSpike := append([]Point(nil), b[:2]...)
	withSpike = append(withSpike, spikeB)
	withSpike = append(withSpike, b[2:]...)
	sz.PushAll(withSpike)
	sz.CloseVehicle("v1")

	c.mu.Lock()
	n := len(c.got["v1"])
	c.mu.Unlock()
	if n != 2 {
		t.Fatalf("got %d trajectories, want 2 (one per trip)", n)
	}
	st := sz.Stats()
	if st.SegmentsClosed != 2 || st.SegmentsDropped != 0 {
		t.Fatalf("segments closed=%d dropped=%d, want 2/0 (stale outlier leaked)",
			st.SegmentsClosed, st.SegmentsDropped)
	}
	for i, tr := range c.got["v1"] {
		if !tr.Matched.Valid(g) {
			t.Fatalf("segment %d invalid", i)
		}
	}
}
