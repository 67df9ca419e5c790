package serve

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/ch"
	"repro/internal/core"
)

// TestServeCHBackend checks ServeOptions.PathBackend upgrades a
// Dijkstra-backed router before serving, that concurrent CH-backed
// queries agree with the Dijkstra-backed engine, and that the backend
// survives a copy-on-write ingest swap.
func TestServeCHBackend(t *testing.T) {
	base, fresh := sharedWorld(t)

	dijEng := NewEngine(base.IngestClone(), Options{CacheSize: -1})
	chRouter := base.IngestClone()
	chEng := NewEngine(chRouter, Options{CacheSize: -1, PathBackend: core.BackendCH})
	if chRouter.PathBackend() != core.BackendCH {
		t.Fatal("NewEngine did not enable the CH backend")
	}

	qs := queries(fresh, 24)
	if len(qs) < 4 {
		t.Skip("not enough queries")
	}
	var wg sync.WaitGroup
	errc := make(chan string, len(qs))
	for _, q := range qs {
		q := q
		wg.Add(1)
		go func() {
			defer wg.Done()
			want, _ := dijEng.Route(q.Src, q.Dst)
			got, _ := chEng.Route(q.Src, q.Dst)
			if want.Evidence != got.Evidence || (len(want.Path) == 0) != (len(got.Path) == 0) {
				errc <- "CH-backed serve result diverged from Dijkstra-backed"
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
	if chEng.Snapshot().PathBackend() != core.BackendCH {
		t.Fatal("ingest swap dropped the CH backend")
	}
	if res, _ := chEng.Route(qs[0].Src, qs[0].Dst); res.Evidence == core.EvidenceNone {
		t.Fatal("post-ingest CH-backed engine cannot route")
	}
}

// TestPublishLoadedArtifactKeepsCHBackend: artifacts carry a
// contraction order but no hierarchy, so a Save → Load copy published
// into a CH engine — plain or durable — must get its hierarchy on the
// way in, not be served (and relearned on, at every later ingest) on
// plain Dijkstra.
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
		if r.PathBackend() != core.BackendDijkstra {
			t.Fatal("a loaded artifact came with a hierarchy; the scenario is void")
		}
		return r
	}
	ref := loaded()
	ref.EnableCH(ch.Config{})
	q := queries(fresh, 1)[0]
	want := ref.Route(q.Src, q.Dst)

	opt := Options{CacheSize: -1, PathBackend: core.BackendCH}
	durable := opt
	durable.WALDir, durable.CheckpointEvery = t.TempDir(), -1
	for name, e := range map[string]*Engine{
		"plain":   NewEngine(base.IngestClone(), opt),
		"durable": mustDurable(t, base.IngestClone(), durable),
	} {
		e.Publish(loaded())
		if got := e.Snapshot().PathBackend(); got != core.BackendCH {
			t.Fatalf("%s: published snapshot serves on %v, want ch", name, got)
		}
		got, _ := e.Route(q.Src, q.Dst)
		if got.Evidence != want.Evidence || !samePath(got.Path, want.Path) {
			t.Fatalf("%s: route after publish = %v (%v), want %v (%v)", name, got.Path, got.Evidence, want.Path, want.Evidence)
		}
		e.Close()
	}
}
