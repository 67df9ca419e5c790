package obs

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

func TestTraceSpanTree(t *testing.T) {
	tr := NewTracer(Config{SlowThreshold: -1})
	ctx, root := tr.StartRequest(context.Background(), "GET /route", "req-1")
	if root == nil {
		t.Fatal("no root span")
	}
	if SpanFrom(ctx) != root {
		t.Fatal("context does not carry the root span")
	}
	ctx2, child := StartSpan(ctx, "cache.lookup")
	grand := SpanFrom(ctx2).Start("inner")
	grand.End()
	child.End()
	sib := root.Start("encode")
	sib.Annotate("k", "v")
	sib.End()
	root.End()

	traces := tr.Recent(10)
	if len(traces) != 1 {
		t.Fatalf("recent = %d traces", len(traces))
	}
	tr1 := traces[0]
	if tr1.ID != "req-1" || tr1.Name != "GET /route" {
		t.Fatalf("trace header = %q %q", tr1.ID, tr1.Name)
	}
	if len(tr1.Spans) != 4 {
		t.Fatalf("spans = %d, want 4", len(tr1.Spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range tr1.Spans {
		byName[s.Name] = s
	}
	if byName["GET /route"].Parent != -1 {
		t.Fatal("root parent != -1")
	}
	if tr1.Spans[byName["cache.lookup"].Parent].Name != "GET /route" {
		t.Fatal("child's parent is not the root")
	}
	if tr1.Spans[byName["inner"].Parent].Name != "cache.lookup" {
		t.Fatal("grandchild's parent is not the child")
	}
	if byName["encode"].Attrs["k"] != "v" {
		t.Fatal("annotation lost")
	}
	// Stage histograms got one observation per span name.
	stages := tr.Stages()
	for _, name := range []string{"GET /route", "cache.lookup", "inner", "encode"} {
		if h, ok := stages[name]; !ok || h.Count() != 1 {
			t.Fatalf("stage %q missing or wrong count", name)
		}
	}
}

func TestSlowQueryLog(t *testing.T) {
	tr := NewTracer(Config{SlowThreshold: time.Nanosecond})
	_, root := tr.StartRequest(context.Background(), "slow", "")
	time.Sleep(time.Millisecond)
	root.End()
	_, fast := NewTracer(Config{SlowThreshold: time.Hour}).StartRequest(context.Background(), "fast", "")
	fast.End()

	slow := tr.Slow(10)
	if len(slow) != 1 || !slow[0].Slow {
		t.Fatalf("slow log = %+v", slow)
	}
	if st := tr.Stats(); st.SlowTraces != 1 || st.Traces != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSlowDisabledByNegativeThreshold(t *testing.T) {
	tr := NewTracer(Config{SlowThreshold: -1})
	_, root := tr.StartRequest(context.Background(), "r", "")
	root.End()
	if len(tr.Slow(10)) != 0 {
		t.Fatal("negative threshold must disable the slow log")
	}
}

func TestRingEviction(t *testing.T) {
	tr := NewTracer(Config{Ring: 4, SlowThreshold: -1})
	for i := 0; i < 10; i++ {
		_, root := tr.StartRequest(context.Background(), "r", NewRequestID())
		root.End()
	}
	got := tr.Recent(0)
	if len(got) != 4 {
		t.Fatalf("ring holds %d, want 4", len(got))
	}
	if n := len(tr.Recent(2)); n != 2 {
		t.Fatalf("Recent(2) = %d", n)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.StartRequest(context.Background(), "r", "")
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	// Every operation on the nil span must no-op.
	sp.Annotate("k", "v")
	child := sp.Start("child")
	child.End()
	sp.End()
	if _, sp2 := StartSpan(ctx, "x"); sp2 != nil {
		t.Fatal("StartSpan minted a span without a trace in ctx")
	}
	if tr.Enabled() || tr.Recent(5) != nil || tr.Slow(5) != nil {
		t.Fatal("nil tracer leaked state")
	}
	tr.SetEnabled(true) // must not panic
	if tr.Stats() != (TracerStats{}) {
		t.Fatal("nil tracer stats not zero")
	}
}

func TestDisabledTracerRecordsNothing(t *testing.T) {
	tr := NewTracer(Config{})
	tr.SetEnabled(false)
	_, sp := tr.StartRequest(context.Background(), "r", "")
	if sp != nil {
		t.Fatal("disabled tracer returned a span")
	}
	if len(tr.Recent(0)) != 0 || tr.Stats().Traces != 0 {
		t.Fatal("disabled tracer recorded a trace")
	}
}

func TestStartRequestRefusesNestedRoots(t *testing.T) {
	tr := NewTracer(Config{SlowThreshold: -1})
	ctx, outer := tr.StartRequest(context.Background(), "fleet", "id-1")
	ctx2, inner := tr.StartRequest(ctx, "engine", "id-2")
	if inner != nil {
		t.Fatal("nested StartRequest minted a second root")
	}
	if SpanFrom(ctx2) != outer {
		t.Fatal("nested StartRequest must keep the outer trace")
	}
	outer.End()
	if got := tr.Recent(1)[0].ID; got != "id-1" {
		t.Fatalf("trace ID = %q", got)
	}
}

func TestOpenSpansEndWithRequest(t *testing.T) {
	tr := NewTracer(Config{SlowThreshold: -1})
	_, root := tr.StartRequest(context.Background(), "r", "")
	root.Start("never-ended")
	root.End()
	spans := tr.Recent(1)[0].Spans
	if len(spans) != 2 {
		t.Fatalf("spans = %d", len(spans))
	}
	if spans[1].DurationUS < 0 {
		t.Fatalf("open span got negative duration %v", spans[1].DurationUS)
	}
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Fatalf("duplicate request IDs: %q", a)
	}
	if !strings.Contains(a, "-") || len(a) < 10 {
		t.Fatalf("unexpected ID shape %q", a)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(Config{Ring: 8, SlowThreshold: -1})
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				ctx, root := tr.StartRequest(context.Background(), "r", "")
				_, c := StartSpan(ctx, "stage")
				c.Annotate("i", "x")
				c.End()
				root.End()
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if got := tr.Stats().Traces; got != 1600 {
		t.Fatalf("traces = %d, want 1600", got)
	}
}

// TestRequestIDFormat pins the strconv-built request ID to the
// fmt.Sprintf it replaced: six digits zero-padded, wider past 999,999.
func TestRequestIDFormat(t *testing.T) {
	for _, n := range []uint64{0, 1, 9, 10, 99, 100, 12345, 99999, 100000, 999999, 1000000, 123456789, math.MaxUint64} {
		for _, prefix := range []string{"", "ab12cd34", ridPrefix} {
			if got, want := requestID(prefix, n), fmt.Sprintf("%s-%06d", prefix, n); got != want {
				t.Fatalf("requestID(%q, %d) = %q, want %q", prefix, n, got, want)
			}
		}
	}
	a, b := NewRequestID(), NewRequestID()
	if a == b || !strings.HasPrefix(a, ridPrefix+"-") || len(a) != len(ridPrefix)+7 {
		t.Fatalf("NewRequestID gave %q then %q", a, b)
	}
}
