package obs

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Prometheus text exposition content type /metrics
// responses must carry.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one metric label pair.
type Label struct {
	Name, Value string
}

// PromWriter writes Prometheus text-format (version 0.0.4) exposition.
// The format wants each metric family's samples in one group after its
// # HELP / # TYPE lines, so samples are kept per family, in the order
// the families were first written, and go out on Flush: the same
// metric can be written repeatedly with different label sets (one per
// fleet tenant, one per category) wherever the caller has its values.
// Label values are escaped per the format, and histograms expand to
// their _bucket/_sum/_count series.
type PromWriter struct {
	w        io.Writer
	index    map[string]int // family name -> position in families
	families []*bytes.Buffer
}

// NewPromWriter wraps w for exposition writing.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, index: make(map[string]int)}
}

// Flush writes the exposition to the underlying writer, every family
// in first-seen order, and returns the first write error. Call it once,
// after the last sample.
func (p *PromWriter) Flush() error {
	for _, f := range p.families {
		if _, err := f.WriteTo(p.w); err != nil {
			return err
		}
	}
	return nil
}

// Counter writes one counter sample.
func (p *PromWriter) Counter(name, help string, v float64, labels ...Label) {
	sample(p.family(name, help, "counter"), name, labels, v)
}

// Gauge writes one gauge sample.
func (p *PromWriter) Gauge(name, help string, v float64, labels ...Label) {
	sample(p.family(name, help, "gauge"), name, labels, v)
}

// Histogram writes h as a native Prometheus histogram: cumulative
// _bucket series with `le` upper bounds in seconds, plus _sum and
// _count. Only the non-empty bucket range is emitted (plus the
// mandatory +Inf bucket), keeping the exposition compact; cumulative
// counts stay exact, so the series is valid for quantile and rate
// queries regardless.
func (p *PromWriter) Histogram(name, help string, h *Histogram, labels ...Label) {
	f := p.family(name, help, "histogram")
	cum, first, last := h.Cumulative()
	if first >= 0 {
		for i := first; i <= last; i++ {
			le := strconv.FormatFloat(BucketUpperBoundSeconds(i), 'g', -1, 64)
			sample(f, name+"_bucket", append(labels[:len(labels):len(labels)], Label{"le", le}), float64(cum[i]))
		}
	}
	count := h.Count()
	sample(f, name+"_bucket", append(labels[:len(labels):len(labels)], Label{"le", "+Inf"}), float64(count))
	sample(f, name+"_sum", labels, h.SumSeconds())
	sample(f, name+"_count", labels, float64(count))
}

// family returns the buffer of the named family, starting it with its
// HELP and TYPE lines the first time.
func (p *PromWriter) family(name, help, typ string) *bytes.Buffer {
	if i, ok := p.index[name]; ok {
		return p.families[i]
	}
	f := new(bytes.Buffer)
	fmt.Fprintf(f, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
	p.index[name] = len(p.families)
	p.families = append(p.families, f)
	return f
}

func sample(f *bytes.Buffer, name string, labels []Label, v float64) {
	f.WriteString(name)
	if len(labels) > 0 {
		f.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				f.WriteByte(',')
			}
			f.WriteString(l.Name)
			f.WriteString(`="`)
			f.WriteString(escapeLabel(l.Value))
			f.WriteByte('"')
		}
		f.WriteByte('}')
	}
	f.WriteByte(' ')
	f.WriteString(formatValue(v))
	f.WriteByte('\n')
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the text format: backslash,
// double quote and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// StageHistograms writes every per-stage duration histogram of t under
// one metric name, labeled by stage, in sorted order for a stable
// exposition.
func (p *PromWriter) StageHistograms(name, help string, t *Tracer, labels ...Label) {
	stages := t.Stages()
	names := make([]string, 0, len(stages))
	for s := range stages {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		p.Histogram(name, help, stages[s], append(labels[:len(labels):len(labels)], Label{"stage", s})...)
	}
}
