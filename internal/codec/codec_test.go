package codec

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

// samplePayload is a hand-laid payload: a name, a few floats and a
// count, as Enc writes them.
func samplePayload() []byte {
	var e Enc
	e.Uvarint(6)
	e.Write([]byte("router"))
	for _, v := range []float64{1.5, -2, 0, 3.75} {
		e.Float64(v)
	}
	e.Int(-7)
	return e.B
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := samplePayload()
	if err := WriteFrameBytes(&buf, 3, in); err != nil {
		t.Fatal(err)
	}
	version, out, err := ReadFrameBytes(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if version != 3 || !bytes.Equal(out, in) {
		t.Fatalf("round trip mismatch: v%d %q", version, out)
	}
}

func TestBadMagic(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameBytes(&buf, 1, samplePayload()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[0] = 'X'
	if _, _, err := ReadFrameBytes(bytes.NewReader(b), 1); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestVersionMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameBytes(&buf, 2, samplePayload()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrameBytes(&buf, 3); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

// TestBitFlipDetected flips every byte position of the payload in turn
// and verifies each corruption is caught.
func TestBitFlipDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameBytes(&buf, 1, samplePayload()); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	for pos := FrameHeaderLen; pos < len(orig); pos++ {
		b := append([]byte(nil), orig...)
		b[pos] ^= 0x40
		if _, _, err := ReadFrameBytes(bytes.NewReader(b), 1); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at %d: err = %v, want ErrCorrupt", pos, err)
		}
	}
}

func TestTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameBytes(&buf, 1, samplePayload()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{0, 3, 10, 22, len(full) - 1} {
		if _, _, err := ReadFrameBytes(bytes.NewReader(full[:cut]), 1); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestImplausibleLengthRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameBytes(&buf, 1, samplePayload()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Overwrite length field with a huge value.
	for i := 6; i < 14; i++ {
		b[i] = 0xFF
	}
	_, _, err := ReadFrameBytes(bytes.NewReader(b), 1)
	if err == nil {
		t.Fatal("implausible length accepted")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestMultipleFramesSequential(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		p := append(samplePayload(), byte(i))
		if err := WriteFrameBytes(&buf, 1, p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		_, out, err := ReadFrameBytes(&buf, 1)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if out[len(out)-1] != byte(i) {
			t.Fatalf("frame %d decoded out of order", i)
		}
	}
	if _, _, err := ReadFrameBytes(&buf, 1); err == nil {
		t.Fatal("read past last frame succeeded")
	}
}

// TestQuickRoundTrip property-tests arbitrary payloads and versions:
// floats laid out with Enc come back bit for bit (NaNs included).
func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []byte, vals []float64, version uint16) bool {
		e := Enc{B: append([]byte(nil), raw...)}
		for _, v := range vals {
			e.Float64(v)
		}
		var buf bytes.Buffer
		if err := WriteFrameBytes(&buf, version, e.B); err != nil {
			return false
		}
		got, out, err := ReadFrameBytes(&buf, version)
		if err != nil || got != version || !bytes.Equal(out, e.B) {
			return false
		}
		d := NewDec(out)
		d.Bytes(len(raw))
		for _, v := range vals {
			if math.Float64bits(d.Float64()) != math.Float64bits(v) {
				return false
			}
		}
		return d.Done() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// errWriter fails after n bytes, exercising write error paths.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, io.ErrClosedPipe
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, io.ErrClosedPipe
	}
	w.n -= len(p)
	return len(p), nil
}

func TestWriteErrorsPropagate(t *testing.T) {
	for _, budget := range []int{0, 5, 23} {
		err := WriteFrameBytes(&errWriter{n: budget}, 1, samplePayload())
		if err == nil {
			t.Fatalf("budget %d: no error", budget)
		}
	}
}

// record lays payload out as WriteRecord takes it: after room for the
// header.
func record(payload []byte) []byte {
	return append(make([]byte, RecordLen(0)), payload...)
}

func TestRecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("alpha"), {}, []byte("a longer record payload with bytes \x00\xff")}
	for i, p := range payloads {
		if err := WriteRecord(&buf, uint64(i+10), record(p)); err != nil {
			t.Fatalf("WriteRecord %d: %v", i, err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	for i, p := range payloads {
		seq, got, err := ReadRecord(r)
		if err != nil {
			t.Fatalf("ReadRecord %d: %v", i, err)
		}
		if seq != uint64(i+10) || !bytes.Equal(got, p) {
			t.Fatalf("record %d = (seq %d, %q)", i, seq, got)
		}
	}
	if _, _, err := ReadRecord(r); err != io.EOF {
		t.Fatalf("end of stream = %v, want io.EOF", err)
	}
}

func TestRecordTornVsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRecord(&buf, 0, record([]byte("payload payload payload"))); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()

	// Any strict prefix of a record is torn, not corrupt.
	for _, cut := range []int{1, 10, len(whole) - 1} {
		_, _, err := ReadRecord(bytes.NewReader(whole[:cut]))
		if !errors.Is(err, ErrTorn) {
			t.Fatalf("prefix %d: err = %v, want ErrTorn", cut, err)
		}
	}
	// A flipped payload byte is corrupt, not torn.
	bad := append([]byte(nil), whole...)
	bad[len(bad)-3] ^= 0xff
	if _, _, err := ReadRecord(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped payload: err = %v, want ErrCorrupt", err)
	}
	// A flipped magic byte is corrupt.
	bad = append([]byte(nil), whole...)
	bad[0] ^= 0xff
	if _, _, err := ReadRecord(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped magic: err = %v, want ErrCorrupt", err)
	}
	// A flipped length byte must read as corruption (header checksum),
	// NOT as a torn record that happens to run past the end of the
	// stream — that would silently truncate everything after it.
	for off := 2; off < 6; off++ {
		bad = append([]byte(nil), whole...)
		bad[off] ^= 0xff
		if _, _, err := ReadRecord(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flipped length byte %d: err = %v, want ErrCorrupt", off, err)
		}
	}
}

// TestCorruptLengthAllocatesNothing: a header whose length field claims
// a gigabyte over an empty body is ErrCorrupt, and reading it allocates
// what arrived (nothing) plus at most one read-ahead chunk — not what
// the header claims. One flipped bit in bytes 6–13 of an artifact or
// checkpoint must not cost the process gigabytes.
func TestCorruptLengthAllocatesNothing(t *testing.T) {
	var header [FrameHeaderLen]byte
	copy(header[:], magic[:])
	header[5] = 3
	header[9] = 0x40 // 1 GiB
	for name, r := range map[string]func() io.Reader{
		"bytes.Reader": func() io.Reader { return bytes.NewReader(header[:]) },
		"plain reader": func() io.Reader { return io.MultiReader(bytes.NewReader(header[:])) },
	} {
		rd := r()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := ReadFrameBytes(rd, 3)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Fatalf("%s: reading a 22-byte frame claiming 1 GiB allocated %d bytes", name, d)
		}
	}
}

// frameVectors are the frames this file's tests read, whole and
// damaged: two payloads, an empty one, two frames back to back, a
// flipped payload byte, a bad magic, a refused version, cuts at every
// part of the header and inside the payload, and an implausible length.
func frameVectors(t *testing.T) map[string][]byte {
	t.Helper()
	var sample, flat, empty, two bytes.Buffer
	WriteFrameBytes(&sample, 3, samplePayload())
	WriteFrameBytes(&flat, 2, []byte("a flat payload"))
	WriteFrameBytes(&empty, 3, nil)
	WriteFrameBytes(&two, 1, []byte("first"))
	WriteFrameBytes(&two, 1, []byte("second"))
	vs := map[string][]byte{"sample": sample.Bytes(), "flat": flat.Bytes(), "empty": empty.Bytes(), "two frames": two.Bytes()}
	damage := func(name string, b []byte, f func([]byte) []byte) {
		vs[name] = f(append([]byte(nil), b...))
	}
	damage("flipped payload", sample.Bytes(), func(b []byte) []byte { b[FrameHeaderLen+3] ^= 0x40; return b })
	damage("flipped checksum", flat.Bytes(), func(b []byte) []byte { b[FrameHeaderLen-1] ^= 1; return b })
	damage("bad magic", flat.Bytes(), func(b []byte) []byte { b[0] = 'X'; return b })
	damage("version 9", flat.Bytes(), func(b []byte) []byte { b[5] = 9; return b })
	damage("implausible length", sample.Bytes(), func(b []byte) []byte {
		for i := 6; i < 14; i++ {
			b[i] = 0xFF
		}
		return b
	})
	damage("length past the end", flat.Bytes(), func(b []byte) []byte { b[13]++; return b })
	for _, cut := range []int{0, 3, 10, FrameHeaderLen - 1, FrameHeaderLen, len(sample.Bytes()) - 1} {
		vs[fmt.Sprintf("cut at %d", cut)] = sample.Bytes()[:cut]
	}
	return vs
}

// TestReadFrameUnverifiedThenVerify: ReadFrameUnverified followed by
// Frame.Verify is ReadFrameBytes — same version, payload and error — on
// every vector, frame after frame of a stream; a flipped payload or
// checksum byte reads and then fails Verify with ErrCorrupt, and a
// short or implausible frame fails at read time.
func TestReadFrameUnverifiedThenVerify(t *testing.T) {
	for name, b := range frameVectors(t) {
		whole, split := bytes.NewReader(b), bytes.NewReader(b)
		for i := 0; ; i++ {
			version, payload, err := ReadFrameBytes(whole, 1, 2, 3)
			f, readErr := ReadFrameUnverified(split, 1, 2, 3)
			verifyErr := readErr
			if readErr == nil {
				verifyErr = f.Verify()
			}
			if fmt.Sprint(err) != fmt.Sprint(verifyErr) {
				t.Fatalf("%s, frame %d: ReadFrameBytes says %v, read and verify %v", name, i, err, verifyErr)
			}
			if err != nil {
				if readErr == nil && !errors.Is(verifyErr, ErrCorrupt) {
					t.Fatalf("%s: a frame read whole failed Verify with %v", name, verifyErr)
				}
				switch name {
				case "flipped payload", "flipped checksum":
					if readErr != nil || !errors.Is(verifyErr, ErrCorrupt) {
						t.Fatalf("%s: read error %v, Verify %v; want a read and ErrCorrupt", name, readErr, verifyErr)
					}
				case "sample", "flat", "empty", "two frames":
					if i == 0 || !errors.Is(err, io.EOF) {
						t.Fatalf("%s, frame %d: %v", name, i, err)
					}
				default:
					if readErr == nil {
						t.Fatalf("%s: read whole, failing only Verify (%v)", name, verifyErr)
					}
				}
				break
			}
			if f.Version != version || !bytes.Equal(f.Payload, payload) {
				t.Fatalf("%s, frame %d: v%d %q against v%d %q", name, i, f.Version, f.Payload, version, payload)
			}
		}
	}
}
