package stream

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/traj"
)

// Ingestor is the full pipeline bound to one serving engine:
// sessionization and online matching via an embedded Sessionizer, plus
// adaptive batching of the closed trajectories into the engine's
// copy-on-write ingest. One Engine.IngestMatched call — one snapshot
// swap — carries a whole batch, where the HTTP /ingest path pays one
// swap per request.
type Ingestor struct {
	eng *serve.Engine
	cfg Config
	sz  *Sessionizer

	mu     sync.Mutex
	queue  []*traj.Trajectory
	oldest time.Time // arrival of queue[0]

	kick      chan struct{}
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once

	queueDrops   atomic.Uint64
	flushes      atomic.Uint64
	flushedTrajs atomic.Uint64
	lastBatch    atomic.Int64
	lastFlushNs  atomic.Int64
}

// Attach builds a pipeline feeding e and wires it in: its NDJSON
// endpoint appears as POST /stream on e's HTTP API and its health in
// e.Stats().Stream. The spatial index and matchers are built over e's
// current road network (the network is immutable across ingest swaps —
// rule 1 of the snapshot contract). A background flusher starts
// immediately; the engine's Close (or Shutdown) stops the pipeline,
// final flush included, before it releases the write-ahead log. Call
// Attach from a serve.Fleet.Attach function to give every tenant of a
// fleet its own.
func Attach(e *serve.Engine, cfg Config) *Ingestor {
	cfg = cfg.withDefaults()
	ing := &Ingestor{
		eng:  e,
		cfg:  cfg,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	user := cfg.OnTrajectory
	emit := func(vehicle string, t *traj.Trajectory) {
		t.ID = e.NextTrajectoryID()
		if user != nil {
			user(vehicle, t)
		}
		ing.enqueue(t)
	}
	ing.sz = NewSessionizer(e.Snapshot().Road(), nil, cfg, emit)
	e.Attach(ing)
	go ing.flusher()
	return ing
}

// Push feeds one point (or control record) into the pipeline; safe for
// concurrent use across vehicles.
func (ing *Ingestor) Push(p Point) { ing.sz.Push(p) }

// PushAll feeds points in order.
func (ing *Ingestor) PushAll(pts []Point) { ing.sz.PushAll(pts) }

// CloseVehicle ends one vehicle's session.
func (ing *Ingestor) CloseVehicle(v string) { ing.sz.CloseVehicle(v) }

// CloseAll ends every open session; the closed trajectories queue for
// the next flush.
func (ing *Ingestor) CloseAll() { ing.sz.CloseAll() }

// enqueue hands one closed trajectory to the batcher. When the bounded
// queue is full — the engine's ingest is slower than the feed — the
// trajectory is dropped and counted rather than blocking the feed.
func (ing *Ingestor) enqueue(t *traj.Trajectory) {
	ing.mu.Lock()
	if len(ing.queue) >= queueCap {
		ing.mu.Unlock()
		ing.queueDrops.Add(1)
		return
	}
	if len(ing.queue) == 0 {
		ing.oldest = time.Now()
	}
	ing.queue = append(ing.queue, t)
	ing.mu.Unlock()
	select {
	case ing.kick <- struct{}{}:
	default:
	}
}

// flusher is the single background goroutine that applies the
// count/age policy: flush when MaxBatch trajectories are queued or the
// oldest has waited FlushAge, whichever comes first.
func (ing *Ingestor) flusher() {
	defer close(ing.done)
	for {
		select {
		case <-ing.stop:
			ing.Flush()
			return
		case <-ing.kick:
		}
		for {
			ing.mu.Lock()
			n := len(ing.queue)
			var age time.Duration
			if n > 0 {
				age = time.Since(ing.oldest)
			}
			ing.mu.Unlock()
			if n == 0 {
				break
			}
			if n >= ing.cfg.MaxBatch || age >= ing.cfg.FlushAge {
				ing.Flush()
				continue
			}
			timer := time.NewTimer(ing.cfg.FlushAge - age)
			select {
			case <-ing.stop:
				timer.Stop()
				ing.Flush()
				return
			case <-ing.kick:
				timer.Stop()
			case <-timer.C:
			}
		}
	}
}

// Flush synchronously ingests everything queued right now as one
// batch (one snapshot swap) and returns the batch size. Safe to call
// concurrently with the background flusher.
//
// The pipeline's matchers were built over the road network the engine
// served at attach time. A Publish that swapped in a router over a
// *different* network (normal artifact reloads of the same city keep
// the network) would make those matches meaningless, so Flush drops
// trajectories whose paths are not valid on the engine's current
// network, counting them as queue drops, instead of corrupting the
// router; re-attach the pipeline after such a swap.
func (ing *Ingestor) Flush() int {
	// Background flushes open their own root trace (named stream.flush)
	// so the write path's WAL/clone/swap spans land in the trace ring
	// even when no HTTP request drove them. Opened only when there is
	// work queued — an empty-queue poll must not pollute the ring.
	if !ing.queued() {
		return 0
	}
	ctx, sp := ing.eng.Tracer().StartRequest(context.Background(), "stream.flush", "")
	n := ing.FlushCtx(ctx)
	sp.End()
	return n
}

// queued reports whether any trajectory is waiting.
func (ing *Ingestor) queued() bool {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return len(ing.queue) > 0
}

// FlushCtx is Flush under the caller's trace: the validation pass and
// the engine write path record spans into the trace ctx carries (the
// HTTP ?flush=1 form uses the request's own trace).
func (ing *Ingestor) FlushCtx(ctx context.Context) int {
	ing.mu.Lock()
	batch := ing.queue
	ing.queue = nil
	ing.mu.Unlock()
	if len(batch) == 0 {
		return 0
	}
	val := obs.SpanFrom(ctx).Start("stream.validate")
	road := ing.eng.Snapshot().Road()
	kept := batch[:0]
	for _, t := range batch {
		if t.Truth.Valid(road) {
			kept = append(kept, t)
		} else {
			ing.queueDrops.Add(1)
		}
	}
	val.End()
	batch = kept
	if len(batch) == 0 {
		return 0
	}
	start := time.Now()
	ing.eng.IngestMatchedCtx(ctx, batch)
	ing.flushes.Add(1)
	ing.flushedTrajs.Add(uint64(len(batch)))
	ing.lastBatch.Store(int64(len(batch)))
	ing.lastFlushNs.Store(int64(time.Since(start)))
	return len(batch)
}

// Close ends the pipeline: every session is closed, the queue is
// flushed, and the background flusher exits. Idempotent.
func (ing *Ingestor) Close() {
	ing.closeOnce.Do(func() {
		ing.sz.CloseAll()
		close(ing.stop)
		<-ing.done
	})
}

// StreamStats reports the pipeline's health: sessionization counters
// plus the batch queue and flush amortization.
func (ing *Ingestor) StreamStats() serve.StreamStats {
	st := ing.sz.Stats()
	ing.mu.Lock()
	st.QueueDepth = len(ing.queue)
	ing.mu.Unlock()
	st.QueueCapacity = queueCap
	st.QueueDrops = ing.queueDrops.Load()
	st.Flushes = ing.flushes.Load()
	st.FlushedTrajectories = ing.flushedTrajs.Load()
	st.LastFlushBatch = int(ing.lastBatch.Load())
	st.LastFlushLatency = time.Duration(ing.lastFlushNs.Load())
	return st
}

// Endpoint, OfferTrajectories, Published and Report implement
// serve.Attachment. The pipeline feeds the engine's write path rather
// than watching it, so the two notifications are no-ops.
func (ing *Ingestor) Endpoint() (string, http.Handler) { return "/stream", ing.Handler() }

func (ing *Ingestor) OfferTrajectories([]*traj.Trajectory) {}

func (ing *Ingestor) Published(*core.Router) {}

func (ing *Ingestor) Report(st *serve.Stats) {
	ss := ing.StreamStats()
	st.Stream = &ss
}

// ReportQueue gives /debug/snapshot the batch queue's depth and
// capacity, StreamStats' two fields, without the rest of StreamStats.
func (ing *Ingestor) ReportQueue(ds *serve.DebugSnapshot) {
	ing.mu.Lock()
	ds.StreamQueueDepth = len(ing.queue)
	ing.mu.Unlock()
	ds.StreamQueueCapacity = queueCap
}
