package serve

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestServeCHBackend checks that concurrent queries on an engine agree
// with the router it serves, answering alone, and that the hierarchy
// survives a copy-on-write ingest swap.
func TestServeCHBackend(t *testing.T) {
	base, fresh := sharedWorld(t)

	ref := base.Clone()
	chEng := NewEngine(base.IngestClone(), Options{CacheSize: -1})
	height, arcs := ref.CHClimb()

	qs := queries(fresh, 24)
	if len(qs) < 4 {
		t.Skip("not enough queries")
	}
	want := make([]core.RouteResult, len(qs))
	for i, q := range qs {
		want[i] = ref.Route(q.Src, q.Dst)
	}
	var wg sync.WaitGroup
	errc := make(chan string, len(qs))
	for i, q := range qs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _ := chEng.Route(q.Src, q.Dst)
			if want[i].Evidence != got.Evidence || !samePath(want[i].Path, got.Path) {
				errc <- "concurrent serve result diverged from the router's own"
			}
		}()
	}
	wg.Wait()
	close(errc)
	if msg, ok := <-errc; ok {
		t.Fatal(msg)
	}

	batch := fresh
	if len(batch) > 10 {
		batch = batch[:10]
	}
	chEng.Ingest(batch)
	if h, a := chEng.Snapshot().CHClimb(); h != height || a != arcs {
		t.Fatalf("ingest swap serves on another hierarchy: height %d, %g arcs per climb; want %d, %g", h, a, height, arcs)
	}
	if res, _ := chEng.Route(qs[0].Src, qs[0].Dst); res.Evidence == core.EvidenceNone {
		t.Fatal("post-ingest engine cannot route")
	}
}

// TestPublishLoadedArtifactKeepsCHBackend: a Save → Load copy arrives
// on the hierarchy derived from the contraction order it carries, so
// published into an engine — plain or durable — it serves on that
// hierarchy and answers like the router it was saved from.
func TestPublishLoadedArtifactKeepsCHBackend(t *testing.T) {
	base, fresh := sharedWorld(t)
	loaded := func() *core.Router {
		t.Helper()
		var buf bytes.Buffer
		if err := base.IngestClone().Save(&buf); err != nil {
			t.Fatalf("Save: %v", err)
		}
		r, err := core.Load(&buf)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		return r
	}
	ref := base.Clone()
	height, arcs := ref.CHClimb()
	q := queries(fresh, 1)[0]
	want := ref.Route(q.Src, q.Dst)

	opt := Options{CacheSize: -1}
	durable := opt
	durable.WALDir, durable.CheckpointEvery = t.TempDir(), -1
	for name, e := range map[string]*Engine{
		"plain":   NewEngine(base.IngestClone(), opt),
		"durable": mustDurable(t, base.IngestClone(), durable),
	} {
		e.Publish(loaded())
		if h, a := e.Snapshot().CHClimb(); h != height || a != arcs {
			t.Fatalf("%s: published snapshot serves on height %d, %g arcs per climb; want %d, %g", name, h, a, height, arcs)
		}
		got, _ := e.Route(q.Src, q.Dst)
		if got.Evidence != want.Evidence || !samePath(got.Path, want.Path) {
			t.Fatalf("%s: route after publish = %v (%v), want %v (%v)", name, got.Path, got.Evidence, want.Path, want.Evidence)
		}
		e.Close()
	}
}
