package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/traj"
	"repro/internal/worldgen"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

func testWorld(tb testing.TB, seed int64) (*roadnet.Graph, []*traj.Trajectory) {
	tb.Helper()
	road := roadnet.Generate(roadnet.Tiny(seed))
	ts := traj.NewSimulator(road, traj.D2Like(seed, 60)).Run()
	if len(ts) < 10 {
		tb.Fatalf("simulator made only %d trips", len(ts))
	}
	return road, ts
}

func batchOf(ts []*traj.Trajectory, id0 int) Batch {
	b := Batch{SkipMapMatching: true}
	for i, t := range ts {
		b.Trajs = append(b.Trajs, &traj.Trajectory{ID: id0 + i, Driver: t.Driver, Depart: t.Depart, Peak: t.Peak, Truth: t.Truth})
	}
	return b
}

func mustID(tb testing.TB, road *roadnet.Graph) NetworkID {
	tb.Helper()
	id, err := IdentityOf(road)
	if err != nil {
		tb.Fatalf("IdentityOf: %v", err)
	}
	return id
}

func mustOpen(tb testing.TB, dir string, road *roadnet.Graph, fromSeq uint64, fn func(uint64, Batch) error) (*Log, RecoveryInfo) {
	tb.Helper()
	l, ri, err := Open(dir, mustID(tb, road), SyncAlways, fromSeq, fn)
	if err != nil {
		tb.Fatalf("Open: %v", err)
	}
	return l, ri
}

func TestColdStartEmptyDir(t *testing.T) {
	road, ts := testWorld(t, 1)
	dir := t.TempDir()
	l, ri := mustOpen(t, dir, road, 0, nil)
	if ri.Records != 0 || ri.Skipped != 0 || ri.Torn || ri.NextSeq != 0 {
		t.Fatalf("cold start RecoveryInfo = %+v, want zero", ri)
	}
	for i := 0; i < 3; i++ {
		seq, err := l.Append(batchOf(ts[i*2:i*2+2], i*2))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if seq != uint64(i) {
			t.Fatalf("Append seq = %d, want %d", seq, i)
		}
	}
	if l.NextSeq() != 3 {
		t.Fatalf("NextSeq = %d, want 3", l.NextSeq())
	}
	l.Close()

	var got []Batch
	l2, ri2 := mustOpen(t, dir, road, 0, func(seq uint64, b Batch) error {
		got = append(got, b)
		return nil
	})
	defer l2.Close()
	if ri2.Records != 3 || ri2.Trajectories != 6 || ri2.Torn || ri2.NextSeq != 3 {
		t.Fatalf("reopen RecoveryInfo = %+v", ri2)
	}
	if len(got) != 3 {
		t.Fatalf("replayed %d batches, want 3", len(got))
	}
	// Round-trip fidelity of the first batch.
	want := ts[0]
	have := got[0].Trajs[0]
	if have.ID != 0 || have.Driver != want.Driver || have.Depart != want.Depart || have.Peak != want.Peak {
		t.Fatalf("metadata did not round-trip: %+v", have)
	}
	if len(have.Truth) != len(want.Truth) {
		t.Fatalf("path length %d, want %d", len(have.Truth), len(want.Truth))
	}
	for i := range have.Truth {
		if have.Truth[i] != want.Truth[i] {
			t.Fatalf("path vertex %d = %d, want %d", i, have.Truth[i], want.Truth[i])
		}
	}
	if !got[0].SkipMapMatching {
		t.Fatal("SkipMapMatching flag lost")
	}
}

func TestTornFinalRecordTolerated(t *testing.T) {
	road, ts := testWorld(t, 2)
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, road, 0, nil)
	for i := 0; i < 3; i++ {
		if _, err := l.Append(batchOf(ts[i:i+1], i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	l.Close()

	// Tear the final record: chop bytes off the tail, as a crash
	// mid-append would.
	path := filepath.Join(dir, LogName)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	var n int
	l2, ri := mustOpen(t, dir, road, 0, func(uint64, Batch) error { n++; return nil })
	if !ri.Torn {
		t.Fatal("torn tail not reported")
	}
	if n != 2 || ri.Records != 2 || ri.NextSeq != 2 {
		t.Fatalf("replayed %d records (info %+v), want 2", n, ri)
	}
	// The tail was truncated; appends continue cleanly at seq 2.
	if seq, err := l2.Append(batchOf(ts[3:4], 3)); err != nil || seq != 2 {
		t.Fatalf("post-truncation Append = (%d, %v), want (2, nil)", seq, err)
	}
	l2.Close()
	n = 0
	l3, ri3 := mustOpen(t, dir, road, 0, func(uint64, Batch) error { n++; return nil })
	defer l3.Close()
	if n != 3 || ri3.Torn {
		t.Fatalf("after repair replayed %d records (torn %v), want 3 clean", n, ri3.Torn)
	}
}

func TestCorruptMiddleRecordFailsLoud(t *testing.T) {
	road, ts := testWorld(t, 3)
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, road, 0, nil)
	var mid int64
	for i := 0; i < 3; i++ {
		if _, err := l.Append(batchOf(ts[i:i+1], i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if i == 0 {
			mid = l.Size() + 30 // somewhere inside record 1's payload
		}
	}
	l.Close()

	path := filepath.Join(dir, LogName)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte{0}
	if _, err := f.ReadAt(buf, mid); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0xff
	if _, err := f.WriteAt(buf, mid); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, _, err = Open(dir, mustID(t, road), SyncAlways, 0, nil)
	if err == nil {
		t.Fatal("corrupt middle record did not fail Open")
	}
	if !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("error %v does not wrap codec.ErrCorrupt", err)
	}
}

// TestIdentityHashesPinned: a road network's identity is the hash of its
// road section (roadnet.Graph.Append), and every WAL header and
// checkpoint on disk carries it. These values were re-recorded once,
// when artifact v4 replaced the road's text with that section (and the
// WAL header and checkpoint versions moved with it); an encoder that
// moves one byte makes every existing WAL directory refuse to open.
func TestIdentityHashesPinned(t *testing.T) {
	for _, c := range []struct {
		road *roadnet.Graph
		want NetworkID
	}{
		{roadnet.Generate(roadnet.Tiny(41)), NetworkID{0x5fba10b8877bb0de, 128, 404}},
		{worldgen.Build(worldgen.MustScale(worldgen.ScaleBench, 1)).Road, NetworkID{0x1b8f71597bcf238c, 151, 468}},
		{worldgen.Build(worldgen.MustScale(worldgen.ScaleCI, 1)).Road, NetworkID{0x525c5bf97030b508, 1626, 5484}},
	} {
		got, err := IdentityOf(c.road)
		if err != nil || got != c.want {
			t.Errorf("IdentityOf = %#x %d %d (err %v), want %#x %d %d", got.Hash, got.NumVertices, got.NumEdges, err, c.want.Hash, c.want.NumVertices, c.want.NumEdges)
		}
	}
}

func TestRoadIdentityMismatch(t *testing.T) {
	road, ts := testWorld(t, 4)
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, road, 0, nil)
	if _, err := l.Append(batchOf(ts[:1], 0)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	other := roadnet.Generate(roadnet.Tiny(99))
	if _, _, err := Open(dir, mustID(t, other), SyncAlways, 0, nil); err == nil {
		t.Fatal("foreign road network accepted")
	}
}

// TestPartialHeaderRecreated: a crash during log *creation* (the file
// exists but ends inside its own header frame) must not brick the
// directory — nothing was ever appended to such a log, so it is
// recreated.
func TestPartialHeaderRecreated(t *testing.T) {
	road, ts := testWorld(t, 41)
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, road, 0, nil)
	headerSize := l.Size()
	l.Close()
	for _, cut := range []int64{1, 10, headerSize - 1} {
		if err := os.Truncate(filepath.Join(dir, LogName), cut); err != nil {
			t.Fatal(err)
		}
		l2, ri := mustOpen(t, dir, road, 0, nil)
		if ri.Records != 0 || ri.Torn {
			t.Fatalf("cut %d: RecoveryInfo = %+v, want clean cold start", cut, ri)
		}
		if _, err := l2.Append(batchOf(ts[:1], 0)); err != nil {
			t.Fatalf("cut %d: append after recreation: %v", cut, err)
		}
		l2.Close()
	}
}

func TestMissingCheckpointForRotatedLog(t *testing.T) {
	road, ts := testWorld(t, 5)
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, road, 0, nil)
	for i := 0; i < 2; i++ {
		if _, err := l.Append(batchOf(ts[i:i+1], i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	l.Close()
	// The rotated log starts at seq 2; opening from seq 0 means the
	// checkpoint that covered records 0-1 is gone. Fail loud.
	if _, _, err := Open(dir, mustID(t, road), SyncAlways, 0, nil); err == nil {
		t.Fatal("rotated log without its checkpoint accepted")
	}
}

func TestRotatePreservesSequence(t *testing.T) {
	road, ts := testWorld(t, 6)
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, road, 0, nil)
	for i := 0; i < 3; i++ {
		if _, err := l.Append(batchOf(ts[i:i+1], i)); err != nil {
			t.Fatal(err)
		}
	}
	sizeBefore := l.Size()
	if err := l.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	if l.Size() >= sizeBefore {
		t.Fatalf("rotation did not shrink the log (%d -> %d)", sizeBefore, l.Size())
	}
	if seq, err := l.Append(batchOf(ts[3:4], 3)); err != nil || seq != 3 {
		t.Fatalf("post-rotation Append = (%d, %v), want (3, nil)", seq, err)
	}
	l.Close()

	var seqs []uint64
	l2, ri := mustOpen(t, dir, road, 3, func(seq uint64, b Batch) error {
		seqs = append(seqs, seq)
		return nil
	})
	defer l2.Close()
	if len(seqs) != 1 || seqs[0] != 3 || ri.NextSeq != 4 {
		t.Fatalf("rotated log replay seqs %v (info %+v), want [3]", seqs, ri)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	road, ts := testWorld(t, 7)
	r, err := core.Build(road, ts[:len(ts)*3/4], core.Options{SkipMapMatching: true})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	dir := t.TempDir()
	if _, ok, err := ReadCheckpoint(dir); err != nil || ok {
		t.Fatalf("empty dir ReadCheckpoint = ok %v, err %v", ok, err)
	}
	id := mustID(t, road)
	genBefore := r.Meta().Generation
	if err := WriteCheckpoint(dir, r, 42, 7, id); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	c, ok, err := ReadCheckpoint(dir)
	if err != nil || !ok {
		t.Fatalf("ReadCheckpoint = ok %v, err %v", ok, err)
	}
	if c.Seq != 42 || c.NextTrajectoryID != 7 || c.RoadHash != id.Hash {
		t.Fatalf("checkpoint envelope = %+v, want seq 42, id watermark 7, road hash %016x", c, id.Hash)
	}
	if c.Router.Meta().Generation != genBefore+1 {
		t.Fatalf("checkpoint generation = %d, want %d (save advances)", c.Router.Meta().Generation, genBefore+1)
	}
	// The recovered router answers like the original.
	for _, tr := range ts[len(ts)*3/4:] {
		a := r.Route(tr.Source(), tr.Destination())
		b := c.Router.Route(tr.Source(), tr.Destination())
		if len(a.Path) != len(b.Path) {
			t.Fatalf("checkpoint route differs for %d->%d", tr.Source(), tr.Destination())
		}
		for i := range a.Path {
			if a.Path[i] != b.Path[i] {
				t.Fatalf("checkpoint route differs for %d->%d at hop %d", tr.Source(), tr.Destination(), i)
			}
		}
	}
}

func TestCorruptCheckpointFailsLoud(t *testing.T) {
	road, ts := testWorld(t, 8)
	r, err := core.Build(road, ts, core.Options{SkipMapMatching: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, r, 1, 0, mustID(t, road)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, CheckpointName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCheckpoint(dir); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}

// TestCarriedIdentityIsIdentityOf: the road identity a router carries —
// recorded by Save over the road section it writes, read back by Load from
// the artifact header — is IdentityOf's by definition, on the bench
// cities 1–3 and the ci cities 1–3 (which skip under the race detector
// and -short): for the saved router, the loaded one, a checkpoint read
// on its own and a checkpoint restored onto the loaded router's road
// network (which then is that router's network, not a copy).
func TestCarriedIdentityIsIdentityOf(t *testing.T) {
	var specs []worldgen.Spec
	for seed := int64(1); seed <= 3; seed++ {
		specs = append(specs, worldgen.MustScale(worldgen.ScaleBench, seed))
		if !raceEnabled && !testing.Short() {
			specs = append(specs, worldgen.MustScale(worldgen.ScaleCI, seed))
		}
	}
	for _, spec := range specs {
		w := worldgen.Build(spec)
		r, err := core.Build(w.Road, w.Train, core.Options{SkipMapMatching: true})
		if err != nil {
			t.Fatal(err)
		}
		want := mustID(t, w.Road)
		if _, ok := r.RoadIdentity(); ok {
			t.Fatal("a router built in-process and never saved claims to know its road's identity")
		}
		if got := IdentityOfRouter(r); got != want {
			t.Fatalf("IdentityOfRouter of a built router = %+v, want %+v", got, want)
		}
		var art bytes.Buffer
		if err := r.Save(&art); err != nil {
			t.Fatal(err)
		}
		loaded, err := core.Load(bytes.NewReader(art.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := WriteCheckpoint(dir, loaded.Clone(), 3, 9, want); err != nil {
			t.Fatal(err)
		}
		alone, _, err := ReadCheckpoint(dir)
		if err != nil {
			t.Fatal(err)
		}
		onto, _, err := ReadCheckpointOnto(dir, loaded, want.Hash)
		if err != nil {
			t.Fatal(err)
		}
		if onto.Router.Road() != loaded.Road() || alone.Router.Road() == loaded.Road() {
			t.Fatal("ReadCheckpointOnto did not restore onto its base's road, or ReadCheckpoint did")
		}
		for name, c := range map[string]*core.Router{"saved": r, "loaded": loaded, "checkpoint": alone.Router, "checkpoint onto base": onto.Router} {
			got, ok := c.RoadIdentity()
			if !ok || got != want.Hash || mustID(t, c.Road()) != want {
				t.Fatalf("%s, %s: carried identity %#x (known %v), IdentityOf %#x", spec.Name, name, got, ok, want.Hash)
			}
		}
	}
}

// TestReadCheckpointRefusesV1: a checkpoint an earlier binary wrote —
// v1, one gob frame around the artifact and its bookkeeping, or v2 and
// v3, this layout around an artifact v3 and v4 — is refused with
// codec.ErrBadVersion naming its version, by ReadCheckpoint and
// ReadCheckpointOnto alike, and is not reported as absent. (The v2 and
// v3 files here wrap today's artifact: their own frame is refused before
// the artifact is read.)
func TestReadCheckpointRefusesV1(t *testing.T) {
	road, ts := testWorld(t, 9)
	r, err := core.Build(road, ts, core.Options{SkipMapMatching: true})
	if err != nil {
		t.Fatal(err)
	}
	var art bytes.Buffer
	if err := r.Save(&art); err != nil {
		t.Fatal(err)
	}
	id := mustID(t, road)
	env := struct {
		Seq, NextTrajectoryID, RoadHash uint64
		Artifact                        []byte
	}{5, 11, id.Hash, art.Bytes()}
	var v1, v2, v3, gobbed bytes.Buffer
	if err := gob.NewEncoder(&gobbed).Encode(&env); err != nil {
		t.Fatal(err)
	}
	if err := codec.WriteFrameBytes(&v1, 1, gobbed.Bytes()); err != nil {
		t.Fatal(err)
	}
	var fixed [checkpointFixedLen]byte
	for version, b := range map[uint16]*bytes.Buffer{2: &v2, 3: &v3} {
		if err := codec.WriteFrameBytes(b, version, fixed[:]); err != nil {
			t.Fatal(err)
		}
		b.Write(art.Bytes())
	}
	for version, file := range map[int][]byte{1: v1.Bytes(), 2: v2.Bytes(), 3: v3.Bytes()} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, CheckpointName), file, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, read := range []func() (*Checkpoint, bool, error){
			func() (*Checkpoint, bool, error) { return ReadCheckpoint(dir) },
			func() (*Checkpoint, bool, error) { return ReadCheckpointOnto(dir, r, id.Hash) },
		} {
			c, ok, err := read()
			if !errors.Is(err, codec.ErrBadVersion) || ok || c != nil || !strings.Contains(err.Error(), fmt.Sprintf("artifact v%d,", version)) {
				t.Fatalf("v%d checkpoint: checkpoint %v, ok %v, err %v; want ErrBadVersion naming v%d", version, c != nil, ok, err, version)
			}
		}
	}
}

// TestOpenRefusesOlderHeaders: a log whose header an earlier binary
// wrote — v1, whose road identity hashed the road's text, or v2, whose
// header and records were gob — is refused with codec.ErrBadVersion
// naming its version, not taken for a log of a foreign road, not
// recreated, and not replayed.
func TestOpenRefusesOlderHeaders(t *testing.T) {
	road, ts := testWorld(t, 9)
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, road, 0, nil)
	if _, err := l.Append(batchOf(ts[:2], 0)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	path := filepath.Join(dir, LogName)
	today, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range []uint16{1, 2} {
		data := bytes.Clone(today)
		binary.BigEndian.PutUint16(data[4:6], version) // the header frame's version
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		replayed := 0
		_, _, err = Open(dir, mustID(t, road), SyncAlways, 0, func(uint64, Batch) error { replayed++; return nil })
		if !errors.Is(err, codec.ErrBadVersion) || !strings.Contains(err.Error(), fmt.Sprintf("artifact v%d, reader accepts v[3]", version)) || replayed != 0 {
			t.Fatalf("v%d header: err %v, %d records replayed; want ErrBadVersion naming v%d and none", version, err, replayed, version)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
			t.Fatalf("Open rewrote a v%d log it refused", version)
		}
	}
}
