package obs

import (
	"context"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// promLine matches one Prometheus text-format sample line:
// name{label="value",...} value
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*")*\})? [^ \n]+$`)

// checkExposition validates every line of a text exposition and
// returns the sample lines.
func checkExposition(t *testing.T, s string) []string {
	t.Helper()
	var samples []string
	for ln, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("line %d is not a valid sample: %q", ln+1, line)
		}
		samples = append(samples, line)
	}
	return samples
}

func TestPromWriterBasics(t *testing.T) {
	var sb strings.Builder
	pw := NewPromWriter(&sb)
	pw.Counter("l2r_queries_total", "Queries.", 42)
	pw.Gauge("l2r_cache_entries", "Entries.", 7, Label{"tenant", "porto"})
	pw.Counter("l2r_queries_total", "Queries.", 10, Label{"tenant", "porto"})
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	checkExposition(t, out)
	if !strings.Contains(out, "l2r_queries_total 42") {
		t.Fatalf("missing unlabeled sample:\n%s", out)
	}
	if !strings.Contains(out, `l2r_queries_total{tenant="porto"} 10`) {
		t.Fatalf("missing labeled sample:\n%s", out)
	}
	// HELP/TYPE emitted once per name even with two sample rows.
	if n := strings.Count(out, "# TYPE l2r_queries_total counter"); n != 1 {
		t.Fatalf("TYPE emitted %d times", n)
	}
}

// TestPromWriterGroupsFamilies: samples written family by family in
// any interleaving come out one group per family, after its HELP and
// TYPE lines, families in first-seen order and samples in write order.
func TestPromWriterGroupsFamilies(t *testing.T) {
	var sb strings.Builder
	pw := NewPromWriter(&sb)
	var h Histogram
	h.Observe(time.Microsecond)
	for _, tenant := range []string{"a", "b"} {
		pw.Counter("q_total", "Q.", 1, Label{"tenant", tenant})
		pw.Histogram("lat_seconds", "L.", &h, Label{"tenant", tenant})
		pw.Gauge("g", "G.", 2, Label{"tenant", tenant})
	}
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	var groups []string
	for _, line := range checkExposition(t, sb.String()) {
		name, labels, _ := strings.Cut(line, "{")
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			name = strings.TrimSuffix(name, suffix)
		}
		if g := name + "/" + strings.TrimPrefix(labels, `tenant="`)[:1]; len(groups) == 0 || groups[len(groups)-1] != g {
			groups = append(groups, g)
		}
	}
	if got, want := strings.Join(groups, " "), "q_total/a q_total/b lat_seconds/a lat_seconds/b g/a g/b"; got != want {
		t.Fatalf("sample groups %q, want %q:\n%s", got, want, sb.String())
	}
	if n := strings.Count(sb.String(), "# TYPE "); n != 3 {
		t.Fatalf("%d TYPE lines, want one per family", n)
	}
}

func TestPromLabelEscaping(t *testing.T) {
	var sb strings.Builder
	pw := NewPromWriter(&sb)
	pw.Gauge("g", "with \\ and \n chars", 1, Label{"l", "a\"b\\c\nd"})
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `l="a\"b\\c\nd"`) {
		t.Fatalf("label not escaped: %q", out)
	}
	if strings.Count(out, "\n") != 3 { // HELP, TYPE, sample — no raw newline leaked
		t.Fatalf("unexpected line structure: %q", out)
	}
	checkExposition(t, out)
}

func TestPromHistogramValid(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(1+i) * time.Microsecond)
	}
	var sb strings.Builder
	pw := NewPromWriter(&sb)
	pw.Histogram("l2r_route_latency_seconds", "Latency.", &h, Label{"tenant", "x"})
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	checkExposition(t, out)

	// The bucket series must be cumulative, ordered by le, and end at
	// +Inf == _count.
	var prevLe float64
	var prevCum uint64
	var buckets int
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "l2r_route_latency_seconds_bucket") {
			continue
		}
		buckets++
		leStart := strings.Index(line, `le="`) + 4
		leEnd := strings.Index(line[leStart:], `"`) + leStart
		leRaw := line[leStart:leEnd]
		cum, err := strconv.ParseUint(line[strings.LastIndex(line, " ")+1:], 10, 64)
		if err != nil {
			t.Fatalf("bucket count in %q: %v", line, err)
		}
		if leRaw == "+Inf" {
			if cum != h.Count() {
				t.Fatalf("+Inf bucket %d != count %d", cum, h.Count())
			}
			continue
		}
		le, err := strconv.ParseFloat(leRaw, 64)
		if err != nil {
			t.Fatalf("le in %q: %v", line, err)
		}
		if le <= prevLe {
			t.Fatalf("le not increasing: %g after %g", le, prevLe)
		}
		if cum < prevCum {
			t.Fatalf("cumulative count decreased: %d after %d", cum, prevCum)
		}
		prevLe, prevCum = le, cum
	}
	if buckets < 3 {
		t.Fatalf("only %d bucket lines", buckets)
	}
	if !strings.Contains(out, `l2r_route_latency_seconds_count{tenant="x"} 100`) {
		t.Fatalf("missing _count:\n%s", out)
	}
	if !strings.Contains(out, "l2r_route_latency_seconds_sum") {
		t.Fatalf("missing _sum:\n%s", out)
	}
}

func TestPromHistogramLabelAliasing(t *testing.T) {
	// Two histograms written with the same shared label slice must not
	// clobber each other's appended le label.
	var h1, h2 Histogram
	h1.Observe(5 * time.Microsecond)
	h2.Observe(5 * time.Microsecond)
	shared := []Label{{"tenant", "a"}}
	var sb strings.Builder
	pw := NewPromWriter(&sb)
	pw.Histogram("m", "h.", &h1, shared...)
	pw.Histogram("m", "h.", &h2, shared...)
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	if shared[0].Value != "a" || len(shared) != 1 {
		t.Fatal("shared label slice mutated")
	}
	checkExposition(t, sb.String())
}

func TestStageHistogramsSortedAndLabeled(t *testing.T) {
	tr := NewTracer(Config{SlowThreshold: -1})
	_, root := tr.StartRequest(context.Background(), "zz-root", "")
	root.Start("aa-stage").End()
	root.End()
	var sb strings.Builder
	pw := NewPromWriter(&sb)
	pw.StageHistograms("l2r_stage_duration_seconds", "Stages.", tr)
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	checkExposition(t, out)
	ia := strings.Index(out, `stage="aa-stage"`)
	iz := strings.Index(out, `stage="zz-root"`)
	if ia < 0 || iz < 0 || ia > iz {
		t.Fatalf("stages missing or unsorted (aa at %d, zz at %d)", ia, iz)
	}
}
