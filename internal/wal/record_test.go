package wal

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/traj"
	"repro/internal/worldgen"
)

// gobRoundTrip is the reference a record must match: the batch through
// encoding/gob, the record payload of log header v2.
func gobRoundTrip(b Batch) (Batch, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&b); err != nil {
		return Batch{}, err
	}
	var out Batch
	err := gob.NewDecoder(&buf).Decode(&out)
	return out, err
}

// bitsOf mirrors a batch with every float as its bits, so that
// reflect.DeepEqual compares NaNs exactly; nil and empty slices stay
// apart. A −0 reads as 0: gob writes no zero, negative or not, so its
// round trip turns −0 into 0 (floatsOf holds the record to −0).
func bitsOf(b Batch) any {
	type gps struct{ T, X, Y uint64 }
	type trip struct {
		ID, Driver     int
		Depart         uint64
		Peak           bool
		Records        []gps
		Truth, Matched roadnet.Path
	}
	var trips []*trip
	if b.Trajs != nil {
		trips = make([]*trip, len(b.Trajs))
	}
	for i, t := range b.Trajs {
		if t == nil {
			continue
		}
		m := &trip{ID: t.ID, Driver: t.Driver, Depart: math.Float64bits(t.Depart + 0), Peak: t.Peak, Truth: t.Truth, Matched: t.Matched}
		if t.Records != nil {
			m.Records = make([]gps, len(t.Records))
		}
		for j, r := range t.Records {
			m.Records[j] = gps{math.Float64bits(r.T + 0), math.Float64bits(r.P.X + 0), math.Float64bits(r.P.Y + 0)}
		}
		trips[i] = m
	}
	return struct {
		Skip  bool
		Trips []*trip
	}{b.SkipMapMatching, trips}
}

// floatsOf lists the bits of every float in b, in record order.
func floatsOf(b Batch) []uint64 {
	var fs []uint64
	for _, t := range b.Trajs {
		fs = append(fs, math.Float64bits(t.Depart))
		for _, r := range t.Records {
			fs = append(fs, math.Float64bits(r.T), math.Float64bits(r.P.X), math.Float64bits(r.P.Y))
		}
	}
	return fs
}

// ciBatches are the ci city's held-out trips in 2-trip batches, the
// size the ingest benchmark appends.
func ciBatches(tb testing.TB) []Batch {
	tb.Helper()
	test := worldgen.Build(worldgen.MustScale(worldgen.ScaleCI, 1)).Test
	var bs []Batch
	for i := 0; i+2 <= len(test); i += 2 {
		bs = append(bs, Batch{SkipMapMatching: i%4 == 0, Trajs: test[i : i+2]})
	}
	return bs
}

// randomBatch draws a batch from the corners of every field: IDs and
// drivers at ±MaxInt64, NaN, ±Inf and −0 floats, vertex IDs at 0 and
// MaxInt32, nil and empty slices. With refuse set it also plants what
// no record carries: a negative vertex ID or a nil trajectory.
func randomBatch(rng *rand.Rand, refuse bool) Batch {
	ints := []int{0, 1, -1, math.MaxInt64, math.MinInt64, -math.MaxInt64, math.MaxInt32 + 1, math.MinInt32 - 1}
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8dead00000001), math.Inf(1), math.Inf(-1),
		1.5, -1e300, math.SmallestNonzeroFloat64, math.MaxFloat64}
	anInt := func() int {
		if rng.Intn(3) == 0 {
			return int(rng.Int63()) - math.MaxInt64/2
		}
		return ints[rng.Intn(len(ints))]
	}
	aFloat := func() float64 {
		if rng.Intn(3) == 0 {
			return rng.NormFloat64() * 1e4
		}
		return floats[rng.Intn(len(floats))]
	}
	aPath := func() roadnet.Path {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return roadnet.Path{}
		}
		p := make(roadnet.Path, 1+rng.Intn(6))
		for i := range p {
			switch rng.Intn(4) {
			case 0:
				p[i] = 0
			case 1:
				p[i] = math.MaxInt32
			default:
				p[i] = roadnet.VertexID(rng.Intn(5000))
			}
		}
		return p
	}
	b := Batch{SkipMapMatching: rng.Intn(2) == 0}
	switch n := rng.Intn(5); {
	case n == 0 && rng.Intn(2) == 0:
		b.Trajs = []*traj.Trajectory{}
	case n > 0:
		b.Trajs = make([]*traj.Trajectory, n)
	}
	for i := range b.Trajs {
		t := &traj.Trajectory{ID: anInt(), Driver: anInt(), Depart: aFloat(), Peak: rng.Intn(2) == 0, Truth: aPath(), Matched: aPath()}
		switch k := rng.Intn(5); {
		case k == 1:
			t.Records = []traj.GPS{}
		case k > 1:
			t.Records = make([]traj.GPS, k)
			for j := range t.Records {
				t.Records[j] = traj.GPS{T: aFloat(), P: geo.Pt(aFloat(), aFloat())}
			}
		}
		b.Trajs[i] = t
	}
	if refuse {
		if len(b.Trajs) == 0 {
			b.Trajs = make([]*traj.Trajectory, 1)
		}
		i := rng.Intn(len(b.Trajs))
		if b.Trajs[i] == nil || rng.Intn(2) == 0 {
			b.Trajs[i] = nil
		} else {
			b.Trajs[i].Truth = append(b.Trajs[i].Truth, -1-roadnet.VertexID(rng.Intn(math.MaxInt32)))
		}
	}
	return b
}

// TestBatchCodecMatchesGobReference: a record decodes to what gob makes
// of the same batch — every ci held-out batch and 2,000 batches drawn
// from every field's corners — except that every float keeps its bits,
// −0 included, and everything Append accepts, Open replays as that. A batch no record carries (a nil trajectory, a
// negative vertex ID) fails Append before it writes a byte.
func TestBatchCodecMatchesGobReference(t *testing.T) {
	road, _ := testWorld(t, 1)
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, road, 0, nil)
	var want, in []Batch
	check := func(name string, b Batch, refuse bool) {
		ref, gobErr := gobRoundTrip(b)
		payload, err := appendBatch(nil, b)
		if refuse {
			size, before := l.Size(), fileBytes(t, dir)
			if err == nil {
				t.Fatalf("%s: a batch the decoder refuses encoded", name)
			}
			if _, err := l.Append(b); err == nil || l.Size() != size || !bytes.Equal(fileBytes(t, dir), before) {
				t.Fatalf("%s: Append = %v and wrote %d bytes; want an error and nothing written", name, err, l.Size()-size)
			}
			return
		}
		if err != nil || gobErr != nil {
			t.Fatalf("%s: encoding failed: %v (gob: %v)", name, err, gobErr)
		}
		got, err := decodeBatch(payload)
		if err != nil {
			t.Fatalf("%s: decoding: %v", name, err)
		}
		if !reflect.DeepEqual(bitsOf(got), bitsOf(ref)) || !slices.Equal(floatsOf(got), floatsOf(b)) {
			t.Fatalf("%s: decoded %+v, gob's reference %+v", name, got, ref)
		}
		if _, err := l.Append(b); err != nil {
			t.Fatalf("%s: Append: %v", name, err)
		}
		want, in = append(want, ref), append(in, b)
	}
	for i, b := range ciBatches(t) {
		check(fmt.Sprintf("ci batch %d", i), b, false)
	}
	rng := rand.New(rand.NewSource(63))
	for i := 0; i < 2000; i++ {
		refuse := rng.Intn(8) == 0
		check(fmt.Sprintf("random batch %d", i), randomBatch(rng, refuse), refuse)
	}
	l.Close()

	var got []Batch
	l, _ = mustOpen(t, dir, road, 0, func(_ uint64, b Batch) error { got = append(got, b); return nil })
	defer l.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d batches, appended %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(bitsOf(got[i]), bitsOf(want[i])) || !slices.Equal(floatsOf(got[i]), floatsOf(in[i])) {
			t.Fatalf("replayed batch %d differs from gob's reference", i)
		}
	}
}

func fileBytes(tb testing.TB, dir string) []byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join(dir, LogName))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestAppendAllocatesNothing: in steady state Append lays the record
// out in the log's kept buffer and writes it from there.
func TestAppendAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	road, ts := testWorld(t, 1)
	l, _, err := Open(t.TempDir(), mustID(t, road), SyncNone, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	b := Batch{SkipMapMatching: true, Trajs: ts[:2]}
	if _, err := l.Append(b); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a steady-state Append allocates %v times", n)
	}
}

// TestAppendReleasesOutsizedBuffer: a batch whose record outgrows
// maxKeptBuf is written, and its buffer is not kept.
func TestAppendReleasesOutsizedBuffer(t *testing.T) {
	road, ts := testWorld(t, 1)
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, road, 0, nil)
	small := Batch{Trajs: ts[:1]}
	var big Batch
	for len(big.Trajs) < 4000 {
		big.Trajs = append(big.Trajs, ts...)
	}
	for i, c := range []struct {
		b    Batch
		kept bool
	}{{small, true}, {big, false}, {small, true}} {
		if _, err := l.Append(c.b); err != nil {
			t.Fatal(err)
		}
		if kept := l.buf != nil; kept != c.kept || cap(l.buf) > maxKeptBuf {
			t.Fatalf("append %d: buffer kept %v (cap %d), want %v", i, kept, cap(l.buf), c.kept)
		}
	}
	l.Close()
	l, ri := mustOpen(t, dir, road, 0, nil)
	defer l.Close()
	if ri.Records != 3 || ri.Trajectories != 2+len(big.Trajs) {
		t.Fatalf("replayed %+v", ri)
	}
}

// FuzzBatchPayload: decodeBatch never panics, allocates within a bound
// linear in its input, and whatever it accepts re-encodes to the same
// bytes — each batch has one record payload.
func FuzzBatchPayload(f *testing.F) {
	_, ts := testWorld(f, 1)
	rng := rand.New(rand.NewSource(1))
	for _, b := range []Batch{{}, {SkipMapMatching: true, Trajs: ts[:2]}, batchOf(ts[2:5], 7), randomBatch(rng, false)} {
		p, err := appendBatch(nil, b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The allocation count is process-wide, and the fuzzing engine
		// allocates beside the target: the least of three decodes is
		// the decoder's own.
		var b Batch
		var err error
		alloc := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b, err = decodeBatch(data)
			runtime.ReadMemStats(&after)
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		if alloc > 32*uint64(len(data))+4096 {
			t.Fatalf("%d-byte payload allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			if !errors.Is(err, codec.ErrMalformed) {
				t.Fatalf("not ErrMalformed: %v", err)
			}
			return
		}
		again, err := appendBatch(nil, b)
		if err != nil {
			t.Fatalf("an accepted payload does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted %x, re-encodes to %x", data, again)
		}
	})
}
