package l2r_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/l2r"
)

// TestOptionsCensus pins the settable values of the option structs a
// deployment configures: the engine's, the build's and ingest's, the
// three attachments', the build's region graph's, the stream's
// matcher's and the tracer's. A field that every caller leaves at
// its default is a branch nobody runs, so the list changes only when a
// new option has two non-test callers that want different values.
func TestOptionsCensus(t *testing.T) {
	match, _ := reflect.TypeFor[l2r.StreamConfig]().FieldByName("Match")
	regionOpts, _ := reflect.TypeFor[l2r.Options]().FieldByName("Region")
	for _, c := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeFor[l2r.ServeOptions](), []string{
			"CacheSize", "PathBackend", "WALDir", "CheckpointEvery", "WALSync", "Tracer",
		}},
		{reflect.TypeFor[l2r.Options](), []string{
			"Region", "SkipMapMatching", "LearnMaxPaths", "Workers", "PathBackend",
		}},
		{regionOpts.Type, []string{"MaxRegionSpan"}},
		{reflect.TypeFor[l2r.IngestOptions](), []string{"SkipMapMatching"}},
		{reflect.TypeFor[l2r.StreamConfig](), []string{
			"GapS", "Match", "MaxBatch", "FlushAge", "OnTrajectory",
		}},
		{match.Type, []string{"SigmaM"}},
		{reflect.TypeFor[l2r.QualityConfig](), []string{"SampleRate", "Ring", "Queue", "MaxPerSec"}},
		{reflect.TypeFor[l2r.MaintConfig](), []string{
			"DriftTV", "MinEvidence", "Interval", "CheckEvery", "Core",
		}},
		{reflect.TypeFor[l2r.TraceConfig](), []string{"Ring", "SlowThreshold"}},
	} {
		var got []string
		for i := range c.typ.NumField() {
			if f := c.typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s has options %v, pinned %v. ROADMAP's rule: a new option needs two non-test callers that want different values; delete one that no longer has them.",
				c.typ, got, c.want)
		}
	}
}
