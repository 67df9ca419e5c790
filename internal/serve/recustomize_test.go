package serve

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/roadnet"
)

// TestRecustomizeMidTrafficSoak hammers a CH-backed engine with
// concurrent route queries while the write path repeatedly ingests and
// re-customizes the shared hierarchy. Run under -race in CI: readers
// borrow snapshot clones whose engine forks share the CH topology and
// the copy-on-write metric table with the generation being customized,
// so any unsynchronized publish shows up here. Afterwards the engine
// must agree with a reference engine that saw the same feed without
// readers, on a lineage of its own: its own hierarchy, metric table and
// learner memo.
func TestRecustomizeMidTrafficSoak(t *testing.T) {
	base, live := sharedWorld(t)
	e := NewEngine(ownLineage(t, base), Options{CacheSize: -1})
	batches := matchedBatches(live, 8)
	if len(batches) > 12 {
		batches = batches[:12]
	}
	ods := sampleODs(live, 32)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				od := ods[(i*7+w)%len(ods)]
				if res, _ := e.Route(od[0], od[1]); len(res.Path) >= 2 && !res.Path.Valid(base.Road()) {
					t.Errorf("worker %d: invalid path for %d->%d mid-customization", w, od[0], od[1])
					return
				}
				if i%16 == 0 {
					e.RouteK(od[0], od[1], 2)
					e.Stats()
				}
			}
		}()
	}
	for _, b := range batches {
		e.IngestMatched(b)
	}
	stop.Store(true)
	wg.Wait()

	if got := e.Generation(); got != uint64(len(batches))+1 {
		t.Fatalf("generation = %d, want %d", got, len(batches)+1)
	}
	st := e.Stats()
	if st.IngestLag <= 0 || st.SwapLag <= 0 {
		t.Fatalf("swap telemetry missing: ingest_lag=%v swap=%v", st.IngestLag, st.SwapLag)
	}
	if st.SwapLag > st.IngestLag {
		t.Fatalf("swap overhead %v exceeds total ingest lag %v", st.SwapLag, st.IngestLag)
	}

	ref := NewEngine(ownLineage(t, base), Options{CacheSize: -1})
	for _, b := range matchedBatches(live, 8)[:len(batches)] {
		ref.IngestMatched(b)
	}
	requireSameAnswers(t, "post-soak vs reference", e, ref, ods)
}

// TestDurableRecoveryRecustomizesHierarchy crashes a durable engine and
// recovers it: WAL batches replay through the COW-clone + re-customize
// swap path onto the recovered base's topology, customizing the metrics
// the replayed preferences bring, and the recovered engine must answer
// exactly like an uninterrupted reference. Writer, reference and
// recovered engine each run on a lineage of their own, so the replay
// customizes into a table nobody else filled and the reference's
// answers come from metrics it customized itself.
func TestDurableRecoveryRecustomizesHierarchy(t *testing.T) {
	// A world whose replayed preferences bring metrics the base lacks (in
	// some, such as seed 17, they bring none and there is nothing to
	// re-customize).
	base, live := buildServeWorld(t, 23, 300)
	dir := t.TempDir()
	batches := matchedBatches(live, 5)
	opt := Options{WALDir: dir, CheckpointEvery: -1}

	e1 := mustDurable(t, ownLineage(t, base), opt)
	for _, b := range batches {
		e1.IngestMatched(b)
	}
	// Crash: no Close, no Checkpoint.

	ref := NewEngine(ownLineage(t, base), Options{})
	for _, b := range matchedBatches(live, 5) {
		ref.IngestMatched(b)
	}

	recovered := ownLineage(t, base)
	before := recovered.Customizations()
	e2 := mustDurable(t, recovered, opt)
	defer e2.Close()
	d := e2.Stats().Durability
	if d.ReplayedRecords != len(batches) {
		t.Fatalf("replayed %d records, want %d", d.ReplayedRecords, len(batches))
	}
	if after := e2.Snapshot().Customizations(); after <= before {
		t.Fatalf("the replay customized nothing on the recovered lineage (%d customizations before, %d after)", before, after)
	}
	requireSameAnswers(t, "CH recovery", e2, ref, sampleODs(live, 40))
}

// TestRecoveredEqualsUninterruptedCH: an engine recovered from
// checkpoint + WAL tail replays the tail on the hierarchy the
// checkpoint was restored onto, so the tail relearns on the same kind
// of engine live ingest used — and ends with the same learned
// preference on every region edge and the same answer on 220 ODs as
// the engine that was never interrupted. The two run on lineages of
// their own: the recovered engine customizes every metric the
// checkpoint and the tail bring into its own table.
func TestRecoveredEqualsUninterruptedCH(t *testing.T) {
	// A world whose ingests bring metrics the base lacks (seed 19's bring
	// none).
	base, live := buildServeWorld(t, 67, 500)
	dir := t.TempDir()
	batches := matchedBatches(live, 4)
	opt := Options{WALDir: dir, CheckpointEvery: 28, CacheSize: -1}

	live1 := mustDurable(t, ownLineage(t, base), opt)
	for _, b := range batches {
		live1.IngestMatched(b)
	}
	if live1.Stats().Durability.Checkpoints == 0 {
		t.Fatal("no automatic checkpoint ran")
	}
	// Crash: no Close, no final checkpoint.

	recovered := ownLineage(t, base)
	before := recovered.Customizations()
	rec := mustDurable(t, recovered, opt)
	defer rec.Close()
	d := rec.Stats().Durability
	if !d.RecoveredFromCheckpoint || d.ReplayedRecords == 0 {
		t.Fatalf("recovery facts %+v: want a checkpoint plus a replayed tail", d)
	}
	if after := rec.Snapshot().Customizations(); after <= before {
		t.Fatalf("recovery customized nothing on the recovered lineage (%d customizations before, %d after)", before, after)
	}

	want, got := live1.Snapshot(), rec.Snapshot()
	edges := want.RegionGraph().Edges
	if len(got.RegionGraph().Edges) != len(edges) {
		t.Fatalf("recovered region graph has %d edges, uninterrupted %d", len(got.RegionGraph().Edges), len(edges))
	}
	learned := 0
	for id := range edges {
		w, wok := want.LearnedPreference(id)
		g, gok := got.LearnedPreference(id)
		if wok != gok || w.Preference != g.Preference || w.PathsUsed != g.PathsUsed ||
			math.Float64bits(w.Similarity) != math.Float64bits(g.Similarity) {
			t.Fatalf("edge %d: recovered learned %+v (%v), uninterrupted %+v (%v)", id, g, gok, w, wok)
		}
		if wok {
			learned++
		}
	}
	if learned == 0 {
		t.Fatal("no learned preferences to compare")
	}

	n := want.Road().NumVertices()
	ods := make([][2]roadnet.VertexID, 220)
	for i := range ods {
		ods[i] = [2]roadnet.VertexID{roadnet.VertexID(i * 37 % n), roadnet.VertexID((i*101 + 13) % n)}
	}
	requireSameAnswers(t, "recovered vs uninterrupted", rec, live1, ods)
}
