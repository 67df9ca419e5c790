package stream

import (
	"hash/maphash"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/geo"
	"repro/internal/mapmatch"
	"repro/internal/roadnet"
	"repro/internal/serve"
	"repro/internal/spatial"
	"repro/internal/traj"
)

// Sessionizer tracks one session per vehicle over a road network,
// turning raw GPS point streams into closed, map-matched trajectory
// segments. It owns stages 1 and 2 of the pipeline (sessionization +
// windowed online matching); closed segments are handed to the emit
// callback, which the Ingestor uses to queue them for batched
// ingestion. Push is safe for concurrent use across vehicles.
type Sessionizer struct {
	cfg    Config
	g      *roadnet.Graph
	shards []*matchShard
	seed   maphash.Seed
	emit   func(vehicle string, t *traj.Trajectory)

	mu       sync.Mutex
	sessions map[string]*session

	pointsIn, pointsLate, pointsDup, pointsOutlier atomic.Uint64
	segClosed, segDropped                          atomic.Uint64
}

// matchShard serializes access to one shared map matcher. Sessions are
// hashed onto shards so matching runs in parallel across vehicles
// without paying one matcher's per-vertex search buffers per session.
type matchShard struct {
	mu sync.Mutex
	m  *mapmatch.Matcher
}

// NewSessionizer builds a sessionizer over g. idx may be nil, in which
// case a spatial index is built with indexCellM cells. Every closed
// segment that survives the length checks is passed to emit together
// with the vehicle that produced it; emit runs on the goroutine that
// pushed (or closed) the segment's last point.
func NewSessionizer(g *roadnet.Graph, idx *spatial.Index, cfg Config, emit func(vehicle string, t *traj.Trajectory)) *Sessionizer {
	cfg = cfg.withDefaults()
	if idx == nil {
		idx = spatial.NewIndex(g, indexCellM)
	}
	s := &Sessionizer{
		cfg:      cfg,
		g:        g,
		seed:     maphash.MakeSeed(),
		emit:     emit,
		sessions: make(map[string]*session),
	}
	s.shards = make([]*matchShard, runtime.GOMAXPROCS(0))
	for i := range s.shards {
		s.shards[i] = &matchShard{m: mapmatch.NewMatcher(g, idx, cfg.Match)}
	}
	return s
}

// Push feeds one point (or control record) into its vehicle's session.
func (s *Sessionizer) Push(p Point) {
	if p.Close {
		s.CloseVehicle(p.Vehicle)
		return
	}
	s.pointsIn.Add(1)
	sess := s.session(p.Vehicle)
	sess.mu.Lock()
	sess.push(p)
	sess.mu.Unlock()
}

// PushAll feeds a slice of points in order.
func (s *Sessionizer) PushAll(pts []Point) {
	for _, p := range pts {
		s.Push(p)
	}
}

// CloseVehicle drains the vehicle's reorder buffer, closes its open
// segment and forgets the session. Unknown vehicles are a no-op.
func (s *Sessionizer) CloseVehicle(v string) {
	s.mu.Lock()
	sess := s.sessions[v]
	delete(s.sessions, v)
	s.mu.Unlock()
	if sess == nil {
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.drain()
	sess.closeSegment()
}

// CloseAll closes every open session (end of feed / shutdown).
func (s *Sessionizer) CloseAll() {
	s.mu.Lock()
	names := make([]string, 0, len(s.sessions))
	for v := range s.sessions {
		names = append(names, v)
	}
	s.mu.Unlock()
	for _, v := range names {
		s.CloseVehicle(v)
	}
}

// ActiveSessions reports how many vehicles have an open session.
func (s *Sessionizer) ActiveSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Stats snapshots the sessionization counters (the queue/flush fields
// belong to the Ingestor and stay zero here).
func (s *Sessionizer) Stats() serve.StreamStats {
	return serve.StreamStats{
		ActiveSessions:  s.ActiveSessions(),
		PointsIn:        s.pointsIn.Load(),
		PointsLate:      s.pointsLate.Load(),
		PointsDuplicate: s.pointsDup.Load(),
		PointsOutlier:   s.pointsOutlier.Load(),
		SegmentsClosed:  s.segClosed.Load(),
		SegmentsDropped: s.segDropped.Load(),
	}
}

func (s *Sessionizer) session(v string) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess, ok := s.sessions[v]; ok {
		return sess
	}
	shard := s.shards[maphash.String(s.seed, v)%uint64(len(s.shards))]
	sess := &session{sz: s, vehicle: v, shard: shard}
	s.sessions[v] = sess
	return sess
}

// session is one vehicle's state: the reorder buffer plus the open
// segment (records + incremental decoder) and the gap/dwell/teleport
// trackers. All fields are guarded by mu.
type session struct {
	mu      sync.Mutex
	sz      *Sessionizer
	vehicle string
	shard   *matchShard

	// Reorder buffer, sorted by T. advancedT is the highest timestamp
	// already handed to advance; older arrivals are late.
	buf       []Point
	advancedT float64
	lastAdv   Point
	anyAdv    bool

	// Last accepted point of the open segment (or idle anchor).
	haveLast   bool
	lastP      geo.Point
	lastT      float64
	anchorP    geo.Point // dwell anchor
	anchorT    float64
	idle       bool   // parked after a dwell close; waiting to move
	pendingOut *Point // held teleport outlier awaiting confirmation
	om         *mapmatch.OnlineMatcher
	recs       []traj.GPS
}

// push inserts one point into the reorder buffer and advances the
// session with whatever falls out of the window.
func (sess *session) push(p Point) {
	// Exact duplicates: identical (T, X, Y) to a buffered point or to
	// the most recently advanced one.
	if sess.anyAdv && p.T == sess.lastAdv.T && p.X == sess.lastAdv.X && p.Y == sess.lastAdv.Y {
		sess.sz.pointsDup.Add(1)
		return
	}
	for _, q := range sess.buf {
		if p.T == q.T && p.X == q.X && p.Y == q.Y {
			sess.sz.pointsDup.Add(1)
			return
		}
	}
	if sess.anyAdv && p.T <= sess.advancedT {
		// Arrived after its slot left the reorder window.
		sess.sz.pointsLate.Add(1)
		return
	}
	// Insert sorted by T (stable for equal timestamps).
	i := len(sess.buf)
	for i > 0 && sess.buf[i-1].T > p.T {
		i--
	}
	sess.buf = append(sess.buf, Point{})
	copy(sess.buf[i+1:], sess.buf[i:])
	sess.buf[i] = p
	if len(sess.buf) > reorderWindow {
		head := sess.buf[0]
		sess.buf = append(sess.buf[:0], sess.buf[1:]...)
		sess.advance(head)
	}
}

// drain advances every buffered point in timestamp order.
func (sess *session) drain() {
	buf := sess.buf
	sess.buf = nil
	for _, p := range buf {
		sess.advance(p)
	}
}

// advance consumes one time-ordered point: segmentation decisions
// happen here.
func (sess *session) advance(p Point) {
	sess.lastAdv, sess.anyAdv, sess.advancedT = p, true, p.T
	pt := p.pos()
	if !sess.haveLast {
		sess.open(p)
		return
	}
	dt := p.T - sess.lastT
	if dt <= 0 {
		sess.sz.pointsLate.Add(1)
		return
	}
	if dt > sess.sz.cfg.GapS {
		sess.closeSegment()
		sess.open(p)
		return
	}
	if sess.teleports(sess.lastP, pt, dt) {
		if q := sess.pendingOut; q != nil {
			qdt := p.T - q.T
			if qdt > 0 && !sess.teleports(q.pos(), pt, qdt) {
				// Two mutually consistent far points: the vehicle really
				// is elsewhere (dead receiver, tunnel, ferry). Split.
				sess.closeSegment()
				sess.pendingOut = nil
				sess.open(*q)
				sess.advance(p)
				return
			}
		}
		// Hold the point: noise until a second far point confirms it.
		sess.sz.pointsOutlier.Add(1)
		cp := p
		sess.pendingOut = &cp
		return
	}
	sess.pendingOut = nil // consistent again; any held point was a spike
	sess.accept(p)
}

// teleports reports whether moving a→b in dt seconds exceeds the
// plausible-speed envelope (maxSpeedMS plus a fixed noise slack, so
// closely spaced noisy fixes don't read as impossible speed).
func (sess *session) teleports(a, b geo.Point, dt float64) bool {
	return a.Dist(b) > maxSpeedMS*dt+teleportSlackM
}

// accept folds one plausible point into the open segment, handling
// idle-dwell tracking.
func (sess *session) accept(p Point) {
	pt := p.pos()
	if sess.idle {
		if pt.Dist(sess.anchorP) <= dwellRadiusM {
			sess.lastP, sess.lastT = pt, p.T // still parked
			return
		}
		sess.idle = false
		sess.open(p)
		return
	}
	if pt.Dist(sess.anchorP) > dwellRadiusM {
		sess.anchorP, sess.anchorT = pt, p.T
	} else if p.T-sess.anchorT > dwellS {
		sess.closeSegment()
		sess.idle = true
		sess.pendingOut = nil
		sess.anchorT = p.T
		sess.lastP, sess.lastT = pt, p.T
		return
	}
	sess.recs = append(sess.recs, traj.GPS{T: p.T, P: pt})
	sess.shard.mu.Lock()
	sess.om.Observe(pt)
	sess.shard.mu.Unlock()
	sess.lastP, sess.lastT = pt, p.T
}

// open starts a fresh segment seeded with p. Any held teleport
// outlier belonged to the previous segment's context and must not
// leak into this one.
func (sess *session) open(p Point) {
	pt := p.pos()
	sess.pendingOut = nil
	sess.om = sess.shard.m.NewOnline()
	sess.recs = []traj.GPS{{T: p.T, P: pt}}
	sess.haveLast = true
	sess.idle = false
	sess.anchorP, sess.anchorT = pt, p.T
	sess.shard.mu.Lock()
	sess.om.Observe(pt)
	sess.shard.mu.Unlock()
	sess.lastP, sess.lastT = pt, p.T
}

// closeSegment finishes the open segment's decode and emits it when it
// carries enough evidence to ingest: at least minPoints records and a
// matched path of at least 2 vertices. Everything shorter is dropped
// and counted, never ingested.
func (sess *session) closeSegment() {
	om, recs := sess.om, sess.recs
	sess.om, sess.recs = nil, nil
	if om == nil {
		return
	}
	sess.sz.segClosed.Add(1)
	sess.shard.mu.Lock()
	matched := om.Close()
	sess.shard.mu.Unlock()
	if len(recs) < minPoints || len(matched) < 2 {
		sess.sz.segDropped.Add(1)
		return
	}
	t := &traj.Trajectory{
		ID:      -1, // the ingest stage assigns engine-unique IDs
		Driver:  -1,
		Depart:  recs[0].T,
		Records: recs,
		// The online match is the best available ground truth; setting
		// both lets core ingest it without a second matching pass.
		Truth:   matched,
		Matched: matched,
	}
	sess.sz.emit(sess.vehicle, t)
}
