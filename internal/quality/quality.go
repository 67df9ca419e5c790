package quality

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/serve"
	"repro/internal/traj"
)

// Config tunes the model-quality observer. The zero value is usable:
// shadow scoring disabled (SampleRate 0), drift and staleness gauges
// active.
type Config struct {
	// SampleRate is the fraction of ingested trajectories shadow-scored
	// (deterministic stride sampling: floor(n*rate) of the first n
	// offered are taken). <= 0 disables shadow scoring; drift and
	// staleness gauges still work.
	SampleRate float64
	// Ring is how many worst-scoring OD exemplars to keep for
	// GET /debug/quality (default 16).
	Ring int
	// queue bounds the scoring queue; samples arriving while it is
	// full are dropped and counted (default 256). The offer side never
	// blocks the ingest path. Only this package's tests set it.
	queue int
	// maxPerSec caps the background scorer's throughput so a burst of
	// ingested trajectories cannot soak a core in shadow re-routes
	// (default 64; negative = unlimited). Only this package's tests set
	// it.
	maxPerSec float64
}

// window is the rolling-window size behind the Window* stats, in
// scores per cell; bucketsKm are the ascending trip-distance bucket
// bounds of the per-distance breakdown.
const window = 256

var bucketsKm = [...]float64{2, 5, 10, 25}

func (c Config) withDefaults() Config {
	if c.Ring <= 0 {
		c.Ring = 16
	}
	if c.queue <= 0 {
		c.queue = 256
	}
	if c.maxPerSec == 0 {
		c.maxPerSec = 64
	}
	return c
}

// sample is one trajectory queued for shadow scoring. The driven path
// is copied at offer time: trajectory structs stay on the ingest side
// (callers may reuse or mutate them), and the copy is taken only for
// the sampled fraction.
type sample struct {
	driven roadnet.Path
}

// cell aggregates scores for one slice of traffic: cumulative sums
// since attach plus rolling windows. Guarded by Observer.mu.
type cell struct {
	n      uint64
	sumEq1 float64
	sumEq4 float64
	winEq1 *obs.Rolling
	winEq4 *obs.Rolling
}

func newCell(window int) *cell {
	return &cell{winEq1: obs.NewRolling(window), winEq4: obs.NewRolling(window)}
}

func (c *cell) observe(eq1, eq4 float64) {
	c.n++
	c.sumEq1 += eq1
	c.sumEq4 += eq4
	c.winEq1.Observe(eq1)
	c.winEq4.Observe(eq4)
}

func (c *cell) stats() serve.QualityScoreCell {
	out := serve.QualityScoreCell{Scores: c.n}
	if c.n > 0 {
		out.Eq1Pct = 100 * c.sumEq1 / float64(c.n)
		out.Eq4Pct = 100 * c.sumEq4 / float64(c.n)
		out.WindowEq1Pct = 100 * c.winEq1.Mean()
		out.WindowEq4Pct = 100 * c.winEq4.Mean()
	}
	return out
}

// Exemplar is one worst-scoring shadow-scored OD kept for
// GET /debug/quality. RequestID links into the trace ring: the
// quality.score trace with that ID holds the re-route's span tree.
type Exemplar struct {
	RequestID  string    `json:"request_id,omitempty"`
	At         time.Time `json:"at"`
	Generation uint64    `json:"generation"`
	Source     int       `json:"source"`
	Dest       int       `json:"dest"`
	Eq1Pct     float64   `json:"eq1_pct"`
	Eq4Pct     float64   `json:"eq4_pct"`
	Category   string    `json:"category"`
	Evidence   string    `json:"evidence"`
	DistKm     float64   `json:"dist_km"`
	Served     []int     `json:"served_path"`
	Driven     []int     `json:"driven_path"`
}

// Observer is the engine-attached model-quality observer. Create one
// with Attach; stop it with Close. All methods are safe for concurrent
// use.
type Observer struct {
	eng *serve.Engine
	cfg Config

	queue     chan sample
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once

	offered atomic.Uint64
	sampled atomic.Uint64
	scored  atomic.Uint64
	dropped atomic.Uint64
	skipped atomic.Uint64

	mu        sync.Mutex
	total     *cell
	perCat    [3]*cell
	perDist   [len(bucketsKm)]*cell
	exemplars []Exemplar // sorted worst (lowest Eq1) first
}

// Attach wires a model-quality observer onto e: the engine's write
// path offers it every ingested batch, Stats()/metrics gain the
// Quality section and the l2r_quality_*/l2r_drift_* families, and
// GET /debug/quality serves the worst-route exemplars. The drift gauges
// are the engine's (serve.Engine.Drift). The engine's Close (or
// Shutdown) stops the background scorer; calling the observer's own
// Close first is harmless.
func Attach(e *serve.Engine, cfg Config) *Observer {
	cfg = cfg.withDefaults()
	o := &Observer{
		eng:   e,
		cfg:   cfg,
		queue: make(chan sample, cfg.queue),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		total: newCell(window),
	}
	for i := range o.perCat {
		o.perCat[i] = newCell(window)
	}
	for i := range o.perDist {
		o.perDist[i] = newCell(window)
	}
	e.Attach(o)
	go o.loop()
	return o
}

// Endpoint serves GET /debug/quality: the observer's full stats plus
// the worst-scoring OD exemplars, worst first. Like every /debug/ path
// it is not traced. With Report and OfferTrajectories below, it
// implements serve.Attachment.
func (o *Observer) Endpoint() (string, http.Handler) {
	return "/debug/quality", serve.Method(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, map[string]any{
			"quality":   o.QualityStats(),
			"exemplars": o.Exemplars(),
		})
	})
}

func (o *Observer) Report(st *serve.Stats) {
	qs := o.QualityStats()
	st.Quality = &qs
}

// ReportQueue gives /debug/snapshot the scoring queue's depth and
// capacity, QualityStats' two fields, without locking the observer's
// cells or computing the drift block.
func (o *Observer) ReportQueue(ds *serve.DebugSnapshot) {
	ds.QualityQueueDepth, ds.QualityQueueCapacity = len(o.queue), cap(o.queue)
}

// Close stops the background scorer. Idempotent; queued samples not
// yet scored are abandoned.
func (o *Observer) Close() {
	o.closeOnce.Do(func() { close(o.stop) })
	<-o.done
}

// Drain blocks until every sample accepted so far has been resolved
// (scored, skipped or dropped) — for tests that stop
// offering and want the full tally. It does not prevent new offers.
func (o *Observer) Drain() {
	for o.scored.Load()+o.skipped.Load()+o.dropped.Load() < o.sampled.Load() {
		select {
		case <-o.done:
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// OfferTrajectories takes the shadow-scoring sample: deterministic
// stride sampling over an atomic counter, a path copy for the sampled
// fraction, and a non-blocking enqueue. Runs on the engine's write
// path under its write lock, so everything here is O(batch) and never
// waits.
func (o *Observer) OfferTrajectories(ts []*traj.Trajectory) {
	if o.cfg.SampleRate <= 0 {
		o.offered.Add(uint64(len(ts)))
		return
	}
	for _, t := range ts {
		i := o.offered.Add(1)
		if !strideSampled(i, o.cfg.SampleRate) {
			continue
		}
		o.sampled.Add(1)
		if len(t.Truth) < 2 {
			o.skipped.Add(1)
			continue
		}
		s := sample{driven: append(roadnet.Path(nil), t.Truth...)}
		select {
		case o.queue <- s:
		default:
			o.dropped.Add(1)
		}
	}
}

// strideSampled reports whether the i-th offered trajectory (1-based)
// is in the deterministic sample: exactly floor(n*rate) of the first n
// are, evenly spread, so sampling accounting is exact rather than
// probabilistic.
func strideSampled(i uint64, rate float64) bool {
	if rate >= 1 {
		return true
	}
	return uint64(float64(i)*rate) > uint64(float64(i-1)*rate)
}

// loop is the background scorer: single goroutine, paced to
// Config.maxPerSec, exits on Close.
func (o *Observer) loop() {
	defer close(o.done)
	var interval time.Duration
	if o.cfg.maxPerSec > 0 {
		interval = time.Duration(float64(time.Second) / o.cfg.maxPerSec)
	}
	var last time.Time
	for {
		select {
		case <-o.stop:
			return
		case s := <-o.queue:
			if interval > 0 && !last.IsZero() {
				if wait := interval - obs.Now().Sub(last); wait > 0 {
					select {
					case <-o.stop:
						return
					case <-time.After(wait):
					}
				}
			}
			last = obs.Now()
			o.score(s)
		}
	}
}

// score re-routes one driven OD on the current snapshot and records
// how close the served answer comes to what the driver actually drove.
func (o *Observer) score(s sample) {
	road := o.eng.Snapshot().Road()
	driven := s.driven
	// Range-check against the *current* road network: a hot swap to a
	// different world can orphan queued samples.
	if len(driven) < 2 || !driven.Valid(road) {
		o.skipped.Add(1)
		return
	}
	src, dst := driven[0], driven[len(driven)-1]
	ctx, sp := o.eng.Tracer().StartRequest(context.Background(), "quality.score", "")
	res, gen := o.eng.ShadowRoute(ctx, src, dst)
	if len(res.Path) < 2 || !res.Path.Valid(road) {
		sp.Annotate("skipped", "unroutable")
		sp.End()
		o.skipped.Add(1)
		return
	}
	eq1, eq4 := eval.ScorePath(road, driven, res.Path)
	distKm := driven.Length(road) / 1000
	bucket := eval.DistanceBucket(distKm, bucketsKm[:])
	sp.Annotate("od", fmt.Sprintf("%d->%d", src, dst))
	sp.Annotate("category", res.Category.String())
	sp.Annotate("eq1_pct", strconv.FormatFloat(100*eq1, 'f', 1, 64))
	id := sp.TraceID()
	sp.End()

	o.mu.Lock()
	o.total.observe(eq1, eq4)
	if int(res.Category) < len(o.perCat) {
		o.perCat[res.Category].observe(eq1, eq4)
	}
	o.perDist[bucket].observe(eq1, eq4)
	o.offerExemplar(Exemplar{
		RequestID:  id,
		At:         obs.Now(),
		Generation: gen,
		Source:     int(src),
		Dest:       int(dst),
		Eq1Pct:     100 * eq1,
		Eq4Pct:     100 * eq4,
		Category:   res.Category.String(),
		Evidence:   res.Evidence.String(),
		DistKm:     distKm,
		Served:     intPath(res.Path),
		Driven:     intPath(driven),
	})
	o.mu.Unlock()
	o.scored.Add(1)
}

// offerExemplar keeps the Ring worst Eq. 1 scores, sorted worst first.
// Caller holds o.mu.
func (o *Observer) offerExemplar(ex Exemplar) {
	if len(o.exemplars) >= o.cfg.Ring && ex.Eq1Pct >= o.exemplars[len(o.exemplars)-1].Eq1Pct {
		return
	}
	pos := len(o.exemplars)
	for i, e := range o.exemplars {
		if ex.Eq1Pct < e.Eq1Pct {
			pos = i
			break
		}
	}
	o.exemplars = append(o.exemplars, Exemplar{})
	copy(o.exemplars[pos+1:], o.exemplars[pos:])
	o.exemplars[pos] = ex
	if len(o.exemplars) > o.cfg.Ring {
		o.exemplars = o.exemplars[:o.cfg.Ring]
	}
}

// Exemplars returns a copy of the worst-scoring ODs, worst first.
func (o *Observer) Exemplars() []Exemplar {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]Exemplar(nil), o.exemplars...)
}

// QualityStats reports the observer's current state (Stats().Quality).
func (o *Observer) QualityStats() serve.QualityStats {
	qs := serve.QualityStats{
		SampleRate:    o.cfg.SampleRate,
		Window:        window,
		Offered:       o.offered.Load(),
		Sampled:       o.sampled.Load(),
		Scored:        o.scored.Load(),
		Dropped:       o.dropped.Load(),
		Skipped:       o.skipped.Load(),
		QueueDepth:    len(o.queue),
		QueueCapacity: cap(o.queue),
	}

	o.mu.Lock()
	qs.Total = o.total.stats()
	if qs.Total.Scores > 0 {
		qs.WindowWorstEq1Pct = 100 * o.total.winEq1.Min()
	}
	for i, c := range o.perCat {
		if c.n == 0 {
			continue
		}
		if qs.PerCategory == nil {
			qs.PerCategory = make(map[string]serve.QualityScoreCell)
		}
		qs.PerCategory[core.Category(i).String()] = c.stats()
	}
	for i, c := range o.perDist {
		if c.n == 0 {
			continue
		}
		if qs.PerDistance == nil {
			qs.PerDistance = make(map[string]serve.QualityScoreCell)
		}
		qs.PerDistance[o.bucketLabel(i)] = c.stats()
	}
	qs.Exemplars = len(o.exemplars)
	o.mu.Unlock()

	qs.Drift = o.eng.Drift()
	if at := o.eng.LastIngestAt(); !at.IsZero() {
		qs.EvidenceAge = time.Since(at)
	}
	qs.CacheGenerationLag = o.eng.CacheGenerationLag()
	return qs
}

// bucketLabel renders distance bucket i like the offline report tables:
// "(2,5]km".
func (o *Observer) bucketLabel(i int) string {
	lo := 0.0
	if i > 0 {
		lo = bucketsKm[i-1]
	}
	return fmt.Sprintf("(%g,%g]km", lo, bucketsKm[i])
}

func intPath(p roadnet.Path) []int {
	out := make([]int, len(p))
	for i, v := range p {
		out[i] = int(v)
	}
	return out
}
