package obs

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes a Tracer.
type Config struct {
	// Ring is how many completed traces the /debug/trace ring keeps
	// (default 256).
	Ring int
	// SlowThreshold sends any trace at least this long to the
	// slow-query log as well (default 250ms; negative disables the
	// slow log).
	SlowThreshold time.Duration
}

// slowRing is the slow-query log's capacity.
const slowRing = 64

func (c Config) withDefaults() Config {
	if c.Ring <= 0 {
		c.Ring = 256
	}
	if c.SlowThreshold == 0 {
		c.SlowThreshold = 250 * time.Millisecond
	}
	return c
}

// Tracer records request traces: a ring of recently completed traces,
// a slow-query log of traces over Config.SlowThreshold, and one
// duration Histogram per span name (the per-stage latency breakdown
// /metrics exports). All methods are safe for concurrent use and safe
// on a nil *Tracer, which never records anything.
type Tracer struct {
	cfg     Config
	enabled atomic.Bool
	ring    traceRing
	slow    traceRing
	stages  sync.Map // span name → *Histogram
	traces  atomic.Uint64
	slowN   atomic.Uint64
}

// NewTracer creates an enabled tracer.
func NewTracer(cfg Config) *Tracer {
	cfg = cfg.withDefaults()
	t := &Tracer{cfg: cfg}
	t.ring.buf = make([]*Trace, cfg.Ring)
	t.slow.buf = make([]*Trace, slowRing)
	t.enabled.Store(true)
	return t
}

// SetEnabled flips tracing on or off at runtime. While off,
// StartRequest returns a nil span and instrumented code pays only nil
// checks; already-recorded traces remain readable.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// Enabled reports whether new requests are being traced.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// StartRequest opens a root span for one request and returns a context
// carrying it; every StartSpan under that context nests. id is the
// request ID to stamp on the trace (empty generates one). End() on the
// returned root span completes the trace and records it. On a nil or
// disabled tracer — or when ctx already carries a trace, as when a
// fleet layer opened one — the context is returned unchanged with a
// nil span, and every span operation is a no-op.
func (t *Tracer) StartRequest(ctx context.Context, name, id string) (context.Context, *Span) {
	if !t.Enabled() || SpanFrom(ctx) != nil {
		return ctx, nil
	}
	if id == "" {
		id = NewRequestID()
	}
	b := &trace{tr: t, id: id, name: name, start: time.Now()}
	b.spans = append(b.spans, spanData{name: name, parent: -1})
	sp := &Span{t: b, i: 0}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// StartSpan opens a child span of the context's current span and
// returns a derived context carrying the child. Without a trace in ctx
// it returns ctx unchanged and a nil span — instrumentation sites need
// no enabled-check of their own.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	sp := SpanFrom(ctx)
	if sp == nil {
		return ctx, nil
	}
	child := sp.t.startSpan(name, sp.i)
	return context.WithValue(ctx, spanKey{}, child), child
}

// SpanFrom returns the context's current span, or nil.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

type spanKey struct{}

// Span is a handle on one span of an in-progress trace. The nil *Span
// no-ops on every method, so callers never branch on tracing state.
type Span struct {
	t *trace
	i int32
}

// Start opens a child span directly (no context derivation) — for
// instrumenting code that threads the span handle instead of a
// context, like core.Router's routing stages.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.startSpan(name, s.i)
}

// End completes the span. Ending the root span finalizes the whole
// trace and records it with the tracer.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.endSpan(s.i)
}

// Annotate attaches a key/value to the span (cache hit, tenant, OD
// pair, ...), shown in /debug/trace and the slow-query log.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	d := &s.t.spans[s.i]
	if d.attrs == nil {
		d.attrs = make(map[string]string, 2)
	}
	d.attrs[key] = value
	s.t.mu.Unlock()
}

// TraceID returns the request ID of the span's trace ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.t.id
}

// trace is the mutable builder behind one in-flight request's spans.
type trace struct {
	tr    *Tracer
	id    string
	name  string
	start time.Time
	mu    sync.Mutex
	spans []spanData
}

type spanData struct {
	name   string
	parent int32
	start  time.Duration
	dur    time.Duration
	ended  bool
	attrs  map[string]string
}

func (b *trace) startSpan(name string, parent int32) *Span {
	off := time.Since(b.start)
	b.mu.Lock()
	b.spans = append(b.spans, spanData{name: name, parent: parent, start: off})
	i := int32(len(b.spans) - 1)
	b.mu.Unlock()
	return &Span{t: b, i: i}
}

func (b *trace) endSpan(i int32) {
	off := time.Since(b.start)
	b.mu.Lock()
	d := &b.spans[i]
	if !d.ended {
		d.dur = off - d.start
		d.ended = true
	}
	root := i == 0
	b.mu.Unlock()
	if root {
		b.tr.record(b)
	}
}

// SpanRecord is one completed span in a dumped trace. Parent is the
// index of the parent span within the trace's Spans slice (-1 for the
// root), so the tree reconstructs without pointer cycles.
type SpanRecord struct {
	Name       string            `json:"name"`
	Parent     int               `json:"parent"`
	StartUS    float64           `json:"start_us"`
	DurationUS float64           `json:"duration_us"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// Trace is one completed, immutable request trace.
type Trace struct {
	ID         string       `json:"id"`
	Name       string       `json:"name"`
	Start      time.Time    `json:"start"`
	DurationUS float64      `json:"duration_us"`
	Slow       bool         `json:"slow"`
	Spans      []SpanRecord `json:"spans"`
}

// record finalizes a completed trace: convert to the immutable form,
// feed the per-stage histograms, push to the ring(s).
func (t *Tracer) record(b *trace) {
	b.mu.Lock()
	dur := b.spans[0].dur
	out := &Trace{
		ID:         b.id,
		Name:       b.name,
		Start:      b.start,
		DurationUS: float64(dur) / float64(time.Microsecond),
		Spans:      make([]SpanRecord, len(b.spans)),
	}
	for i, d := range b.spans {
		sd := d.dur
		if !d.ended { // a span left open ends with the request
			sd = dur - d.start
		}
		out.Spans[i] = SpanRecord{
			Name:       d.name,
			Parent:     int(d.parent),
			StartUS:    float64(d.start) / float64(time.Microsecond),
			DurationUS: float64(sd) / float64(time.Microsecond),
			Attrs:      d.attrs,
		}
		t.stage(d.name).Observe(sd)
	}
	b.mu.Unlock()
	t.traces.Add(1)
	out.Slow = t.cfg.SlowThreshold >= 0 && dur >= t.cfg.SlowThreshold
	t.ring.add(out)
	if out.Slow {
		t.slowN.Add(1)
		t.slow.add(out)
	}
}

func (t *Tracer) stage(name string) *Histogram {
	if h, ok := t.stages.Load(name); ok {
		return h.(*Histogram)
	}
	h, _ := t.stages.LoadOrStore(name, &Histogram{})
	return h.(*Histogram)
}

// Recent returns up to n most recently completed traces, newest first.
func (t *Tracer) Recent(n int) []*Trace {
	if t == nil {
		return nil
	}
	return t.ring.recent(n)
}

// Slow returns up to n most recent slow-query traces, newest first.
func (t *Tracer) Slow(n int) []*Trace {
	if t == nil {
		return nil
	}
	return t.slow.recent(n)
}

// Stages snapshots the per-stage histogram registry (live Histogram
// pointers — safe to read concurrently with tracing).
func (t *Tracer) Stages() map[string]*Histogram {
	out := make(map[string]*Histogram)
	if t == nil {
		return out
	}
	t.stages.Range(func(k, v any) bool {
		out[k.(string)] = v.(*Histogram)
		return true
	})
	return out
}

// TracerStats summarizes tracer activity.
type TracerStats struct {
	Enabled       bool          `json:"enabled"`
	Traces        uint64        `json:"traces"`
	SlowTraces    uint64        `json:"slow_traces"`
	SlowThreshold time.Duration `json:"slow_threshold_ns"`
}

// Stats reports tracer activity (zero value on a nil tracer).
func (t *Tracer) Stats() TracerStats {
	if t == nil {
		return TracerStats{}
	}
	return TracerStats{
		Enabled:       t.Enabled(),
		Traces:        t.traces.Load(),
		SlowTraces:    t.slowN.Load(),
		SlowThreshold: t.cfg.SlowThreshold,
	}
}

// traceRing is a fixed-capacity ring of completed traces.
type traceRing struct {
	mu   sync.Mutex
	buf  []*Trace
	next int
}

func (r *traceRing) add(t *Trace) {
	r.mu.Lock()
	r.buf[r.next%len(r.buf)] = t
	r.next++
	r.mu.Unlock()
}

func (r *traceRing) recent(n int) []*Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 || n > len(r.buf) {
		n = len(r.buf)
	}
	out := make([]*Trace, 0, n)
	for i := r.next - 1; i >= r.next-len(r.buf) && len(out) < n; i-- {
		if i < 0 {
			break
		}
		if t := r.buf[i%len(r.buf)]; t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Request IDs: a per-process random prefix plus a counter — unique
// across restarts and across the fleet without coordination, and cheap
// enough to stamp every request.
var (
	ridPrefix = func() string {
		var b [4]byte
		if _, err := cryptorand.Read(b[:]); err != nil {
			return fmt.Sprintf("%08x", time.Now().UnixNano()&0xffffffff)
		}
		return hex.EncodeToString(b[:])
	}()
	ridSeq atomic.Uint64
)

// NewRequestID returns a process-unique request ID, used when a
// request arrives without an X-Request-ID header.
func NewRequestID() string { return requestID(ridPrefix, ridSeq.Add(1)) }

// requestID formats prefix-n with n zero-padded to six digits (wider
// past 999,999), as fmt.Sprintf("%s-%06d", prefix, n) does, in the one
// allocation the returned string needs.
func requestID(prefix string, n uint64) string {
	var buf [40]byte // an 8-character prefix, '-', at most 20 digits
	b := append(buf[:0], prefix...)
	b = append(b, '-')
	for lim := uint64(100000); lim > 1 && n < lim; lim /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendUint(b, n, 10))
}
