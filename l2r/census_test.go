package l2r_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/l2r"
)

// TestOptionsCensus pins the settable values of the three option
// structs a deployment configures. A field that every caller leaves at
// its default is a branch nobody runs, so the list changes only when a
// new option has two non-test callers that want different values.
func TestOptionsCensus(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeFor[l2r.ServeOptions](), []string{
			"CacheSize", "MaxBodyBytes", "PathBackend", "WALDir",
			"CheckpointEvery", "WALSync", "AsyncRecovery", "Tracer",
		}},
		{reflect.TypeFor[l2r.Options](), []string{
			"Cluster", "Region", "Transfer", "MapMatch", "SkipMapMatching",
			"LearnMaxPaths", "Workers", "IndexCellM", "MinConfidence", "PathBackend",
		}},
		{reflect.TypeFor[l2r.IngestOptions](), []string{"SkipMapMatching"}},
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
