package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/traj"
	"repro/internal/wal"
)

// matchedBatches splits live trajectories into ingest batches of n,
// copying each so two engines ingesting "the same feed" never share
// mutable trajectory state.
func matchedBatches(live []*traj.Trajectory, n int) [][]*traj.Trajectory {
	var batches [][]*traj.Trajectory
	for i := 0; i < len(live); i += n {
		j := i + n
		if j > len(live) {
			j = len(live)
		}
		var b []*traj.Trajectory
		for k, t := range live[i:j] {
			b = append(b, &traj.Trajectory{ID: i + k, Driver: t.Driver, Depart: t.Depart, Peak: t.Peak, Truth: t.Truth})
		}
		batches = append(batches, b)
	}
	return batches
}

// sampleODs picks query endpoints from the live set.
func sampleODs(live []*traj.Trajectory, n int) [][2]roadnet.VertexID {
	var ods [][2]roadnet.VertexID
	for i := 0; i < len(live) && len(ods) < n; i++ {
		ods = append(ods, [2]roadnet.VertexID{live[i].Source(), live[i].Destination()})
	}
	return ods
}

// requireSameAnswers asserts two engines hold the same region graph,
// byte for byte in its image, and answer a set of OD pairs identically:
// Route's reachability, category, evidence and path, and the same of
// every alternative RouteK(s, d, 4) ranks.
func requireSameAnswers(t *testing.T, what string, got, want *Engine, ods [][2]roadnet.VertexID) {
	t.Helper()
	if !bytes.Equal(regionImage(got), regionImage(want)) {
		t.Fatalf("%s: the region graphs differ", what)
	}
	for _, od := range ods {
		g, _ := got.Route(od[0], od[1])
		w, _ := want.Route(od[0], od[1])
		if d := answerDiff(g, w); d != "" {
			t.Fatalf("%s: %d->%d differs: %s", what, od[0], od[1], d)
		}
		gk, _ := got.RouteK(od[0], od[1], 4)
		wk, _ := want.RouteK(od[0], od[1], 4)
		if len(gk) != len(wk) {
			t.Fatalf("%s: %d->%d differs: %d alternatives, want %d", what, od[0], od[1], len(gk), len(wk))
		}
		for i := range gk {
			if d := answerDiff(gk[i], wk[i]); d != "" {
				t.Fatalf("%s: %d->%d alternative %d differs: %s", what, od[0], od[1], i, d)
			}
		}
	}
}

// regionImage is the image of the region graph e serves.
func regionImage(e *Engine) []byte {
	var enc codec.Enc
	e.Snapshot().RegionGraph().Append(&enc)
	return enc.B
}

// answerDiff describes how got differs from want ("" when it does not).
func answerDiff(got, want core.RouteResult) string {
	switch {
	case (len(got.Path) > 0) != (len(want.Path) > 0):
		return fmt.Sprintf("found %v, want %v", len(got.Path) > 0, len(want.Path) > 0)
	case got.Category != want.Category:
		return fmt.Sprintf("category %v, want %v", got.Category, want.Category)
	case got.Evidence != want.Evidence:
		return fmt.Sprintf("evidence %v, want %v", got.Evidence, want.Evidence)
	case !samePath(got.Path, want.Path):
		return fmt.Sprintf("paths diverge (%d vertices, want %d)", len(got.Path), len(want.Path))
	}
	return ""
}

func mustDurable(t *testing.T, r *core.Router, opt Options) *Engine {
	t.Helper()
	e, err := NewDurableEngine(r, opt)
	if err != nil {
		t.Fatalf("NewDurableEngine: %v", err)
	}
	return e
}

// TestDurableColdStartEmptyDir: an empty WAL directory is a cold
// start — the engine answers exactly like a plain one, the log is
// created, and every recovery fact is zero.
func TestDurableColdStartEmptyDir(t *testing.T) {
	base, live := buildServeWorld(t, 11, 300)
	dir := t.TempDir()
	e := mustDurable(t, base.IngestClone(), Options{WALDir: dir})
	defer e.Close()
	plain := NewEngine(base.IngestClone(), Options{})
	requireSameAnswers(t, "cold start", e, plain, sampleODs(live, 30))

	d := e.Stats().Durability
	if d == nil {
		t.Fatal("no durability stats on a durable engine")
	}
	if d.RecoveredFromCheckpoint || d.ReplayedRecords != 0 || d.TornTailTruncated || d.RecoveredSeq != 0 {
		t.Fatalf("cold start recovery facts not zero: %+v", d)
	}
	if _, err := os.Stat(filepath.Join(dir, wal.LogName)); err != nil {
		t.Fatalf("log not created: %v", err)
	}
}

// TestDurableEngineRecoversAfterCrash: ingest through the WAL (no
// checkpoints), abandon the engine without Close — a process kill —
// and recover into a fresh engine: its answers equal an uninterrupted
// run over the same feed.
func TestDurableEngineRecoversAfterCrash(t *testing.T) {
	base, live := buildServeWorld(t, 12, 300)
	dir := t.TempDir()
	batches := matchedBatches(live, 4)

	e1 := mustDurable(t, base.IngestClone(), Options{WALDir: dir, CheckpointEvery: -1})
	for _, b := range batches {
		e1.IngestMatched(b)
	}
	// Crash: no Close, no Checkpoint. The OS has every append already.

	ref := NewEngine(ownLineage(t, base), Options{})
	for _, b := range matchedBatches(live, 4) {
		ref.IngestMatched(b)
	}

	e2 := mustDurable(t, ownLineage(t, base), Options{WALDir: dir, CheckpointEvery: -1})
	defer e2.Close()
	d := e2.Stats().Durability
	if d.ReplayedRecords != len(batches) || d.RecoveredFromCheckpoint {
		t.Fatalf("recovery facts: %+v, want %d replayed records from WAL only", d, len(batches))
	}
	requireSameAnswers(t, "WAL-only recovery", e2, ref, sampleODs(live, 40))

	// Replayed trajectory IDs must not be reissued.
	if id := e2.NextTrajectoryID(); id < len(live) {
		t.Fatalf("NextTrajectoryID = %d, collides with replayed IDs (< %d)", id, len(live))
	}
}

// TestCIReplayAndRecoveryAgree: on the ci city the served model and
// answers are a function of the evidence. Two durable engines, each on
// its own lineage, replay one seeded schedule — batches of held-out
// trips with routes and alternatives between them, so answers cached at
// earlier generations are live when later batches land — and must hold
// the same region graph and answer alike. A third engine recovered from
// the first's WAL directory while the first is still open (a crash: no
// Close, no checkpoint) must match it too. The schedule cycles through
// the held-out trips, so its last batches only raise the counts of
// paths already stored and change no answer: the region graph is what
// shows a record recovery failed to replay.
func TestCIReplayAndRecoveryAgree(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("ci scale: skipped under -short and -race")
	}
	base, s := ciWorld(t)
	replay := func(e *Engine) {
		t.Helper()
		if err := s.play(1, inProcess(e)); err != nil {
			t.Fatal(err)
		}
	}

	dirA := t.TempDir()
	a := mustDurable(t, base.IngestClone(), logOnly(dirA))
	defer a.Close()
	replay(a)
	b := mustDurable(t, ownLineage(t, base), logOnly(t.TempDir()))
	defer b.Close()
	replay(b)
	requireSameAnswers(t, "seed replay (B vs A)", b, a, s.ods)

	c := mustDurable(t, ownLineage(t, base), logOnly(dirA))
	defer c.Close()
	if d := c.Stats().Durability; d.ReplayedRecords != ciBatches || d.RecoveredFromCheckpoint {
		t.Fatalf("recovery facts: %+v, want %d replayed records from the WAL only", d, ciBatches)
	}
	requireSameAnswers(t, "crash recovery (C vs A)", c, a, s.ods)
}

// TestRecoveryKeepsNoReplayedBatches: the WAL tail a restart replays
// is folded into the served router and then dropped — with no
// maintainer attached to claim the evidence count, too. The tail's
// trajectories carry ~19 MB of GPS records (streamed trips keep them);
// the live heap must not grow by anything near that once the recovered
// engine stands.
func TestRecoveryKeepsNoReplayedBatches(t *testing.T) {
	base, live := buildServeWorld(t, 14, 300)
	dir := t.TempDir()
	const trips, recordsPerTrip = 32, 25_000
	tailBytes := uint64(trips * recordsPerTrip * int(unsafe.Sizeof(traj.GPS{})))
	func() {
		e1 := mustDurable(t, base.IngestClone(), Options{WALDir: dir, CheckpointEvery: -1})
		for _, b := range matchedBatches(live[:trips], 4) {
			for _, tr := range b {
				tr.Records = make([]traj.GPS, recordsPerTrip)
				for i := range tr.Records {
					tr.Records[i] = traj.GPS{T: float64(i), P: geo.Pt(float64(i), 1)}
				}
			}
			e1.IngestMatched(b)
		}
		if err := e1.Close(); err != nil {
			t.Fatal(err)
		}
	}()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e2 := mustDurable(t, base.IngestClone(), Options{WALDir: dir, CheckpointEvery: -1})
	runtime.GC()
	runtime.ReadMemStats(&after)
	defer e2.Close()
	if d := e2.Stats().Durability; d.ReplayedTrajectories != trips {
		t.Fatalf("replayed %d trajectories, want %d", d.ReplayedTrajectories, trips)
	}
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if grown > int64(tailBytes/4) {
		t.Fatalf("the live heap grew by %d bytes over recovery, the replayed tail's records are %d: the engine kept them", grown, tailBytes)
	}
	t.Logf("live heap grew by %d bytes over recovering a %d-byte tail", grown, tailBytes)
}

// TestDurableEngineCheckpointPlusTail: with automatic checkpoints the
// restart loads the newest checkpoint and replays only the log tail —
// and still equals the uninterrupted run.
func TestDurableEngineCheckpointPlusTail(t *testing.T) {
	base, live := buildServeWorld(t, 13, 300)
	dir := t.TempDir()
	batches := matchedBatches(live, 4)
	opt := Options{WALDir: dir, CheckpointEvery: 20} // checkpoint every ~5 batches

	e1 := mustDurable(t, base.IngestClone(), opt)
	for _, b := range batches {
		e1.IngestMatched(b)
	}
	if ck := e1.Stats().Durability.Checkpoints; ck == 0 {
		t.Fatal("no automatic checkpoint ran")
	}

	ref := NewEngine(ownLineage(t, base), Options{})
	for _, b := range matchedBatches(live, 4) {
		ref.IngestMatched(b)
	}

	e2 := mustDurable(t, ownLineage(t, base), opt)
	defer e2.Close()
	d := e2.Stats().Durability
	if !d.RecoveredFromCheckpoint {
		t.Fatalf("recovery ignored the checkpoint: %+v", d)
	}
	if d.ReplayedRecords >= len(batches) {
		t.Fatalf("replayed %d records, want a tail shorter than %d", d.ReplayedRecords, len(batches))
	}
	if d.RecoveredSeq != uint64(len(batches)) {
		t.Fatalf("RecoveredSeq = %d, want %d", d.RecoveredSeq, len(batches))
	}
	if d.CheckpointGeneration == 0 {
		t.Fatal("checkpoint generation did not advance")
	}
	requireSameAnswers(t, "checkpoint+tail recovery", e2, ref, sampleODs(live, 40))
}

// TestRecoveryIdempotent: recovery never writes, so recovering twice
// from the same disk state — a crash *during* recovery — lands in the
// same place both times.
func TestRecoveryIdempotent(t *testing.T) {
	base, live := buildServeWorld(t, 14, 300)
	dir := t.TempDir()
	opt := Options{WALDir: dir, CheckpointEvery: 24}
	e1 := mustDurable(t, base.IngestClone(), opt)
	for _, b := range matchedBatches(live, 3) {
		e1.IngestMatched(b)
	}
	// Crash. Snapshot the WAL directory's bytes.
	before := readDirBytes(t, dir)

	ra := mustDurable(t, base.IngestClone(), opt)
	if diff := diffDirBytes(before, readDirBytes(t, dir)); diff != "" {
		t.Fatalf("first recovery mutated the WAL directory: %s", diff)
	}
	rb := mustDurable(t, base.IngestClone(), opt)
	defer rb.Close()
	requireSameAnswers(t, "double recovery", ra, rb, sampleODs(live, 40))
	ra.Close()
}

func readDirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

func diffDirBytes(a, b map[string][]byte) string {
	for name, data := range a {
		if !bytes.Equal(data, b[name]) {
			return name + " changed"
		}
	}
	for name := range b {
		if _, ok := a[name]; !ok {
			return name + " appeared"
		}
	}
	return ""
}

// TestTornFinalRecordTolerated: chop bytes off the log's tail (a crash
// mid-append) — recovery truncates the torn record and serves the rest.
func TestTornFinalRecordToleratedByEngine(t *testing.T) {
	base, live := buildServeWorld(t, 15, 300)
	dir := t.TempDir()
	batches := matchedBatches(live, 4)
	opt := Options{WALDir: dir, CheckpointEvery: -1}
	e1 := mustDurable(t, base.IngestClone(), opt)
	for _, b := range batches {
		e1.IngestMatched(b)
	}

	path := filepath.Join(dir, wal.LogName)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-11); err != nil {
		t.Fatal(err)
	}

	ref := NewEngine(ownLineage(t, base), Options{})
	for _, b := range matchedBatches(live, 4)[:len(batches)-1] {
		ref.IngestMatched(b)
	}

	e2 := mustDurable(t, ownLineage(t, base), opt)
	defer e2.Close()
	d := e2.Stats().Durability
	if !d.TornTailTruncated || d.ReplayedRecords != len(batches)-1 {
		t.Fatalf("torn-tail recovery facts: %+v", d)
	}
	requireSameAnswers(t, "torn tail", e2, ref, sampleODs(live, 40))
}

// TestCorruptWALFailsLoud: a checksum-corrupt record in the middle of
// the log refuses to serve instead of replaying half a history.
func TestCorruptWALFailsLoud(t *testing.T) {
	base, live := buildServeWorld(t, 16, 300)
	dir := t.TempDir()
	e1 := mustDurable(t, base.IngestClone(), Options{WALDir: dir, CheckpointEvery: -1})
	for _, b := range matchedBatches(live, 4) {
		e1.IngestMatched(b)
	}
	e1.Close()

	path := filepath.Join(dir, wal.LogName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDurableEngine(base.IngestClone(), Options{WALDir: dir}); err == nil {
		t.Fatal("corrupt WAL served anyway")
	}
}

// TestForeignCheckpointFailsLoud: a checkpoint from a different road
// network must refuse to serve.
func TestForeignCheckpointFailsLoud(t *testing.T) {
	base, live := buildServeWorld(t, 17, 300)
	dir := t.TempDir()
	e1 := mustDurable(t, base.IngestClone(), Options{WALDir: dir})
	e1.IngestMatched(matchedBatches(live, 8)[0])
	if err := e1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e1.Close()

	other, _ := buildServeWorld(t, 99, 300)
	if _, err := NewDurableEngine(other, Options{WALDir: dir}); err == nil {
		t.Fatal("checkpoint from a foreign road network served anyway")
	}
}

// TestV1CheckpointFailsLoud: a WAL directory an earlier binary wrote —
// a v1 checkpoint (one gob frame around the bookkeeping and a copy of
// the artifact), a v2 or v3 checkpoint (this layout, but around an
// artifact v3 or v4), or a log under a v1 header (a text road identity)
// or a v2 one (gob records) — must refuse to serve, with
// codec.ErrBadVersion, rather than fall back to the base artifact and
// roll the learned state back, or replay around the file.
func TestV1CheckpointFailsLoud(t *testing.T) {
	base, live := buildServeWorld(t, 17, 300)
	written := t.TempDir()
	e1 := mustDurable(t, base.IngestClone(), Options{WALDir: written})
	e1.IngestMatched(matchedBatches(live, 8)[0])
	if err := e1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e1.IngestMatched(matchedBatches(live, 8)[1])
	e1.Close()
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(written, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	ckpt, log := read(wal.CheckpointName), read(wal.LogName)
	if e, err := NewDurableEngine(base.IngestClone(), Options{WALDir: written}); err != nil {
		t.Fatalf("today's files: %v", err)
	} else {
		e.Close()
	}

	rd := bytes.NewReader(ckpt)
	_, fixed, err := codec.ReadFrameBytes(rd, 4)
	if err != nil {
		t.Fatal(err)
	}
	env := struct {
		Seq, NextTrajectoryID, RoadHash uint64
		Artifact                        []byte
	}{binary.BigEndian.Uint64(fixed), binary.BigEndian.Uint64(fixed[8:]), binary.BigEndian.Uint64(fixed[16:]), ckpt[len(ckpt)-rd.Len():]}
	var v1, gobbed bytes.Buffer
	if err := gob.NewEncoder(&gobbed).Encode(&env); err != nil {
		t.Fatal(err)
	}
	if err := codec.WriteFrameBytes(&v1, 1, gobbed.Bytes()); err != nil {
		t.Fatal(err)
	}
	// A frame's checksum covers its payload only, so an older frame is
	// today's with its version field set back.
	older := func(data []byte, version uint16) []byte {
		data = bytes.Clone(data)
		binary.BigEndian.PutUint16(data[4:6], version)
		return data
	}
	for name, files := range map[string]map[string][]byte{
		"v1 checkpoint": {wal.CheckpointName: v1.Bytes(), wal.LogName: log},
		"v2 checkpoint": {wal.CheckpointName: older(ckpt, 2), wal.LogName: log},
		"v3 checkpoint": {wal.CheckpointName: older(ckpt, 3), wal.LogName: log},
		"v1 log header": {wal.CheckpointName: ckpt, wal.LogName: older(log, 1)},
		"v2 log header": {wal.CheckpointName: ckpt, wal.LogName: older(log, 2)},
	} {
		dir := t.TempDir()
		for file, data := range files {
			if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if e, err := NewDurableEngine(base.IngestClone(), Options{WALDir: dir}); !errors.Is(err, codec.ErrBadVersion) || e != nil {
			t.Fatalf("%s: engine %v, err %v; want ErrBadVersion and no engine", name, e != nil, err)
		}
	}
}

// TestCheckpointRacesHotReload: automatic checkpoints triggered by a
// hot ingest feed race artifact Publishes (each of which checkpoints
// and rotates too). Run under -race; afterwards the directory must
// still recover cleanly.
func TestCheckpointRacesHotReload(t *testing.T) {
	base, live := buildServeWorld(t, 18, 300)
	dir := t.TempDir()
	opt := Options{WALDir: dir, CheckpointEvery: 8}
	e := mustDurable(t, base.IngestClone(), opt)
	batches := matchedBatches(live, 2)
	ods := sampleODs(live, 8)

	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // live ingest, tripping automatic checkpoints
		defer wg.Done()
		for _, b := range batches {
			e.IngestMatched(b)
		}
	}()
	go func() { // hot artifact reloads
		defer wg.Done()
		for i := 0; i < 6; i++ {
			e.Publish(e.Snapshot().IngestClone())
			time.Sleep(time.Millisecond)
		}
	}()
	go func() { // concurrent queries never block on either
		defer wg.Done()
		for i := 0; i < 200; i++ {
			od := ods[i%len(ods)]
			e.Route(od[0], od[1])
		}
	}()
	wg.Wait()

	st := e.Stats()
	if st.Durability.Checkpoints == 0 {
		t.Fatal("no checkpoint ran during the race")
	}
	if st.Durability.CheckpointFailures != 0 || st.Durability.WALAppendFailures != 0 {
		t.Fatalf("durability failures under race: %+v", st.Durability)
	}
	// Crash and recover: whatever interleaving happened, the directory
	// must reconstruct a serving engine.
	e2 := mustDurable(t, base.IngestClone(), opt)
	defer e2.Close()
	for _, od := range ods {
		if res, _ := e2.Route(od[0], od[1]); res.Evidence == core.EvidenceNone && len(res.Path) == 0 {
			t.Fatalf("recovered engine cannot answer %d->%d", od[0], od[1])
		}
	}
	e.Close()
}

// TestIngestDurableField: the /ingest reply says whether the batch hit
// the write-ahead log.
func TestIngestDurableField(t *testing.T) {
	base, live := buildServeWorld(t, 20, 300)
	body := func() *strings.Reader {
		p := live[0].Truth
		raw := make([]int, len(p))
		for i, v := range p {
			raw[i] = int(v)
		}
		b, _ := json.Marshal(map[string]any{"paths": []any{raw}})
		return strings.NewReader(string(b))
	}
	post := func(e *Engine) map[string]any {
		srv := httptest.NewServer(e.Handler())
		defer srv.Close()
		resp, err := http.Post(srv.URL+"/ingest", "application/json", body())
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
		var reply map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatal(err)
		}
		return reply
	}

	durable := mustDurable(t, base.IngestClone(), Options{WALDir: t.TempDir()})
	defer durable.Close()
	if reply := post(durable); reply["durable"] != true {
		t.Fatalf("durable engine /ingest reply: %v", reply)
	}
	plain := NewEngine(base.IngestClone(), Options{})
	if reply := post(plain); reply["durable"] != false {
		t.Fatalf("plain engine /ingest reply: %v", reply)
	}
}

// TestFleetDurableRecovery: fleet mode end to end — two tenants loaded
// from artifacts by a watcher, live-ingesting through per-tenant WAL
// directories; the whole process dies and a fresh fleet over the same
// directories recovers every tenant's learned state.
func TestFleetDurableRecovery(t *testing.T) {
	artDir := t.TempDir()
	walRoot := t.TempDir()
	type world struct {
		name string
		base *core.Router
		live []*traj.Trajectory
	}
	worlds := []world{}
	for i, name := range []string{"acity", "bcity"} {
		base, live := buildServeWorld(t, int64(21+i), 300)
		base.SetName(name)
		f, err := os.Create(filepath.Join(artDir, name+ArtifactExt))
		if err != nil {
			t.Fatal(err)
		}
		if err := base.Save(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		worlds = append(worlds, world{name: name, base: base, live: live})
	}

	opt := Options{WALDir: walRoot, CheckpointEvery: 16}
	fleet1 := NewFleet(opt)
	w1 := NewWatcher(fleet1, artDir)
	if loaded, _, failed := w1.Scan(); loaded != 2 || failed != 0 {
		t.Fatalf("scan loaded %d failed %d", loaded, failed)
	}
	for _, wd := range worlds {
		e, ok := fleet1.Get(wd.name)
		if !ok {
			t.Fatalf("tenant %q missing", wd.name)
		}
		if !e.Durable() {
			t.Fatalf("tenant %q engine not durable", wd.name)
		}
		for _, b := range matchedBatches(wd.live, 4) {
			e.IngestMatched(b)
		}
	}
	// Crash the whole process: no Close, no final checkpoint.

	// Reference: the artifacts plus the same feeds, uninterrupted.
	refs := make(map[string]*Engine)
	for _, wd := range worlds {
		f, err := os.Open(filepath.Join(artDir, wd.name+ArtifactExt))
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.Load(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		ref := NewEngine(r, Options{})
		for _, b := range matchedBatches(wd.live, 4) {
			ref.IngestMatched(b)
		}
		refs[wd.name] = ref
	}

	fleet2 := NewFleet(opt)
	w2 := NewWatcher(fleet2, artDir)
	if loaded, _, failed := w2.Scan(); loaded != 2 || failed != 0 {
		t.Fatalf("restart scan loaded %d failed %d", loaded, failed)
	}
	defer fleet2.Close()
	for _, wd := range worlds {
		e, ok := fleet2.Get(wd.name)
		if !ok {
			t.Fatalf("tenant %q missing after restart", wd.name)
		}
		d := e.Stats().Durability
		if d == nil || d.RecoveredSeq == 0 {
			t.Fatalf("tenant %q recovered nothing: %+v", wd.name, d)
		}
		requireSameAnswers(t, "fleet recovery "+wd.name, e, refs[wd.name], sampleODs(wd.live, 30))
	}

	// The tenant-addressed stats endpoint surfaces durability.
	srv := httptest.NewServer(fleet2.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/t/acity/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Durability == nil {
		t.Fatal("/t/acity/stats has no durability block")
	}
}

// crashSeed and crashTrips parameterize the SIGKILL crash test; parent
// and child must agree on them.
const (
	crashSeed  = 31
	crashTrips = 300
)

// crashFeed derives the deterministic live feed both the child (to
// ingest) and the parent (to build the reference) use. Trajectories
// come from the seeded simulator only — no dependence on the built
// router — so the two processes see byte-identical batches.
func crashFeed(tb testing.TB) [][]*traj.Trajectory {
	tb.Helper()
	road := roadnet.Generate(roadnet.Tiny(crashSeed))
	ts := traj.NewSimulator(road, traj.D2Like(crashSeed, crashTrips)).Run()
	cut := len(ts) * 6 / 10
	return matchedBatches(ts[cut:], 2)
}

// TestWALCrashRecovery is the acceptance crash test: a child process
// serves a durable engine and ingests a deterministic feed until the
// parent SIGKILLs it mid-ingestion; the parent then recovers from the
// child's WAL directory and asserts the recovered engine's route
// answers equal an uninterrupted run over the same feed prefix — every
// batch the child acknowledged before dying must be there.
func TestWALCrashRecovery(t *testing.T) {
	if dir := os.Getenv("WAL_CRASH_DIR"); dir != "" {
		walCrashChild(t, dir)
		return
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestWALCrashRecovery$", "-test.v")
	cmd.Env = append(os.Environ(), "WAL_CRASH_DIR="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Let the child acknowledge a healthy prefix — past its first
	// automatic checkpoint (CheckpointEvery 24 trajectories = 12
	// batches), so the restart exercises checkpoint + WAL tail — then
	// kill -9 it mid-feed.
	sc := bufio.NewScanner(stdout)
	acked := 0
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "applied ") {
			acked++
			if acked >= 16 {
				break
			}
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "applied ") {
			acked++ // drain anything acknowledged before the kill landed
		}
	}
	cmd.Wait() // expected to be "signal: killed"
	if acked == 0 {
		t.Fatal("child acknowledged nothing before dying")
	}

	// Recover from what the child left behind.
	baseBytes, err := os.ReadFile(filepath.Join(dir, "base.l2r"))
	if err != nil {
		t.Fatalf("child's base artifact: %v", err)
	}
	load := func() *core.Router {
		r, err := core.Load(bytes.NewReader(baseBytes))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	recovered := mustDurable(t, load(), crashOptions(dir))
	defer recovered.Close()
	d := recovered.Stats().Durability
	n := int(d.RecoveredSeq)
	batches := crashFeed(t)
	if n < acked {
		t.Fatalf("child acknowledged %d batches but recovery found %d", acked, n)
	}
	if n > len(batches) {
		t.Fatalf("recovered %d batches, feed only has %d", n, len(batches))
	}
	t.Logf("child killed after %d acked batches; recovered %d (checkpoint: %v, replayed %d, torn tail: %v)",
		acked, n, d.RecoveredFromCheckpoint, d.ReplayedRecords, d.TornTailTruncated)

	ref := NewEngine(load(), Options{})
	var live []*traj.Trajectory
	for _, b := range batches {
		live = append(live, b...)
	}
	for _, b := range batches[:n] {
		ref.IngestMatched(b)
	}
	requireSameAnswers(t, "SIGKILL recovery", recovered, ref, sampleODs(live, 40))
}

func crashOptions(dir string) Options {
	return Options{WALDir: dir, CheckpointEvery: 24, WALSync: wal.SyncAlways}
}

// walCrashChild is the process the parent kills: build the world, save
// the base artifact (so the parent recovers the *same* base without
// relying on cross-process build determinism), then ingest the
// deterministic feed batch by batch, acknowledging each on stdout.
func walCrashChild(t *testing.T, dir string) {
	road := roadnet.Generate(roadnet.Tiny(crashSeed))
	ts := traj.NewSimulator(road, traj.D2Like(crashSeed, crashTrips)).Run()
	cut := len(ts) * 6 / 10
	base, err := core.Build(road, ts[:cut], core.Options{SkipMapMatching: true})
	if err != nil {
		t.Fatalf("child Build: %v", err)
	}
	f, err := os.Create(filepath.Join(dir, "base.l2r"))
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	e, err := NewDurableEngine(base, crashOptions(dir))
	if err != nil {
		t.Fatalf("child NewDurableEngine: %v", err)
	}
	for i, b := range crashFeed(t) {
		e.IngestMatched(b)
		// The append is on disk (SyncAlways) before the swap returns:
		// everything acknowledged here must survive the kill.
		fmt.Printf("applied %d\n", i+1)
		os.Stdout.Sync()
		time.Sleep(2 * time.Millisecond)
	}
	fmt.Println("child finished (parent was too slow to kill; still a valid run)")
}

// TestTrajectoryIDFencingSurvivesCheckpoint: engine-issued trajectory
// IDs must stay unique across a restart even when the WAL tail is
// empty (everything folded into the checkpoint) — the watermark rides
// in the checkpoint envelope.
func TestTrajectoryIDFencingSurvivesCheckpoint(t *testing.T) {
	base, live := buildServeWorld(t, 23, 300)
	dir := t.TempDir()
	opt := Options{WALDir: dir, CheckpointEvery: -1}
	e1 := mustDurable(t, base.IngestClone(), opt)
	var batch []*traj.Trajectory
	for i := 0; i < 10; i++ {
		// The HTTP /ingest and stream paths draw IDs like this.
		batch = append(batch, &traj.Trajectory{ID: e1.NextTrajectoryID(), Truth: live[i].Truth})
	}
	e1.IngestMatched(batch)
	if err := e1.Checkpoint(); err != nil { // folds the batch in, rotates the log
		t.Fatal(err)
	}
	// Crash with an empty WAL tail.

	e2 := mustDurable(t, base.IngestClone(), opt)
	defer e2.Close()
	if d := e2.Stats().Durability; d.ReplayedRecords != 0 || !d.RecoveredFromCheckpoint {
		t.Fatalf("expected checkpoint-only recovery, got %+v", d)
	}
	if id := e2.NextTrajectoryID(); id < 10 {
		t.Fatalf("NextTrajectoryID = %d after restart, collides with checkpointed IDs (< 10)", id)
	}
}

// TestPublishDifferentNetworkRebinds: a hot swap to a router on a
// *different* road network must rebind the WAL directory to the new
// world — a restart with the new artifact recovers, and a restart with
// the old one refuses.
func TestPublishDifferentNetworkRebinds(t *testing.T) {
	baseA, liveA := buildServeWorld(t, 24, 300)
	baseB, _ := buildServeWorld(t, 77, 300) // different seed => different network
	dir := t.TempDir()
	opt := Options{WALDir: dir, CheckpointEvery: -1}

	e1 := mustDurable(t, baseA.IngestClone(), opt)
	e1.IngestMatched(matchedBatches(liveA, 8)[0])
	e1.Publish(baseB.IngestClone()) // world swap: checkpoint B, rotate, rebind
	// Crash.

	e2, err := NewDurableEngine(baseB.IngestClone(), opt)
	if err != nil {
		t.Fatalf("restart with the published network failed: %v", err)
	}
	defer e2.Close()
	if d := e2.Stats().Durability; !d.RecoveredFromCheckpoint {
		t.Fatalf("expected to recover the published router's checkpoint, got %+v", d)
	}
	if _, err := NewDurableEngine(baseA.IngestClone(), opt); err == nil {
		t.Fatal("restart with the pre-publish network served a post-publish WAL directory")
	}
}

// TestRecoveryRestoresCheckpointOntoBaseRoad: a restart decodes one road
// network. The base router — loaded from its artifact, so it carries its
// road's identity and contraction order, or built in-process, so the
// identity is computed — is the reference the checkpoint is verified
// against, and the checkpoint's region graph and fits are restored onto
// the base's own *roadnet.Graph instead of a second decode of the same
// network. The recovered engine knows its road's identity, serves on
// the hierarchy, and answers like the engine that crashed.
func TestRecoveryRestoresCheckpointOntoBaseRoad(t *testing.T) {
	built, live := buildServeWorld(t, 17, 300)
	var art bytes.Buffer
	if err := built.IngestClone().Save(&art); err != nil {
		t.Fatal(err)
	}
	for name, base := range map[string]func() *core.Router{
		"loaded base": func() *core.Router {
			r, err := core.Load(bytes.NewReader(art.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			return r
		},
		"built base": func() *core.Router { return built.Clone() },
	} {
		t.Run(name, func(t *testing.T) {
			opt := Options{WALDir: t.TempDir(), CheckpointEvery: 8}
			e1 := mustDurable(t, base(), opt)
			for _, b := range matchedBatches(live, 4)[:5] {
				e1.IngestMatched(b)
			}
			if e1.Stats().Durability.Checkpoints == 0 {
				t.Fatal("no automatic checkpoint ran")
			}
			r := base()
			e2 := mustDurable(t, r, opt)
			defer e2.Close()
			if d := e2.Stats().Durability; !d.RecoveredFromCheckpoint || d.ReplayedRecords == 0 {
				t.Fatalf("want a checkpoint plus a replayed tail: %+v", d)
			}
			snap := e2.Snapshot()
			if snap.Road() != r.Road() {
				t.Fatal("the checkpoint was restored onto a second copy of the road network, not the base's")
			}
			if h, a := snap.CHClimb(); h == 0 || a <= 0 {
				t.Fatalf("recovered snapshot reports elimination tree height %d, %g up-arcs per climb", h, a)
			}
			want, err := wal.IdentityOf(snap.Road())
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := snap.RoadIdentity(); !ok || got != want.Hash {
				t.Fatalf("recovered router's identity %#x (known %v), want %#x", got, ok, want.Hash)
			}
			requireSameAnswers(t, name, e2, e1, sampleODs(live, 40))
		})
	}
}
