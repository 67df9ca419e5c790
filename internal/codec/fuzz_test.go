package codec

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
)

// FuzzReadRecord feeds ReadRecord arbitrary byte streams — garbage,
// truncations, bit-flipped records — and requires it to terminate with
// a sentinel error instead of panicking or over-reading: exactly the
// contract the WAL recovery scan depends on when it meets a torn tail.
func FuzzReadRecord(f *testing.F) {
	var valid bytes.Buffer
	WriteRecord(&valid, 1, record([]byte("hello")))
	WriteRecord(&valid, 2, record(bytes.Repeat([]byte{0xAB}, 300)))
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-3]) // torn tail
	f.Add([]byte{})
	f.Add([]byte("not a record at all"))
	flipped := append([]byte(nil), valid.Bytes()...)
	flipped[recHeaderLen+1] ^= 0x40 // payload corruption
	f.Add(flipped)
	huge := append([]byte(nil), valid.Bytes()...)
	huge[2], huge[3], huge[4], huge[5] = 0xFF, 0xFF, 0xFF, 0x7F // absurd length
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for i := 0; i < 1000; i++ {
			_, payload, err := ReadRecord(r)
			if err == nil {
				if len(payload) > len(data) {
					t.Fatalf("payload of %d bytes from a %d-byte stream", len(payload), len(data))
				}
				continue
			}
			if err == io.EOF || errors.Is(err, ErrTorn) || errors.Is(err, ErrCorrupt) {
				return
			}
			t.Fatalf("ReadRecord returned a non-sentinel error: %v", err)
		}
		t.Fatalf("ReadRecord did not terminate within 1000 records on %d bytes", len(data))
	})
}

// FuzzRecordRoundTrip is the identity property: whatever the payload
// and sequence number, WriteRecord → ReadRecord hands both back
// unchanged — and every strict prefix of the encoding fails with a
// clean torn/corrupt error rather than fabricating a record.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(uint64(0), []byte(nil))
	f.Add(uint64(1), []byte("payload"))
	f.Add(uint64(1<<63), bytes.Repeat([]byte{0}, 1024))

	f.Fuzz(func(t *testing.T, seq uint64, payload []byte) {
		var buf bytes.Buffer
		if err := WriteRecord(&buf, seq, record(payload)); err != nil {
			t.Fatalf("WriteRecord(%d, %d bytes): %v", seq, len(payload), err)
		}
		if got, want := int64(buf.Len()), RecordLen(len(payload)); got != want {
			t.Fatalf("encoded length %d, RecordLen says %d", got, want)
		}
		enc := append([]byte(nil), buf.Bytes()...)

		gotSeq, gotPayload, err := ReadRecord(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("ReadRecord round trip: %v", err)
		}
		if gotSeq != seq || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("round trip changed record: seq %d->%d, payload %d->%d bytes",
				seq, gotSeq, len(payload), len(gotPayload))
		}

		// A prefix cut mid-record must read as torn (or EOF when empty),
		// never as a successful record.
		for _, cut := range []int{1, recHeaderLen - 1, recHeaderLen, len(enc) - 1} {
			if cut < 0 || cut >= len(enc) {
				continue
			}
			_, _, err := ReadRecord(bytes.NewReader(enc[:cut]))
			if err == nil {
				t.Fatalf("truncation at %d of %d bytes read as a whole record", cut, len(enc))
			}
			if err != io.EOF && !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncation at %d: non-sentinel error %v", cut, err)
			}
		}
	})
}

// FuzzReadFrame feeds ReadFrameBytes arbitrary bytes, through a reader
// that reports how much it holds and through one that does not. It must
// end in a sentinel error or a frame that re-encodes to the bytes it
// was read from, and must never allocate more than twice what arrived
// plus one read-ahead chunk, whatever the header claims.
func FuzzReadFrame(f *testing.F) {
	var valid bytes.Buffer
	WriteFrameBytes(&valid, 3, []byte("a flat payload"))
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-2]) // short payload
	f.Add(valid.Bytes()[:10])            // short header
	f.Add([]byte{})
	huge := append([]byte(nil), valid.Bytes()...)
	huge[6] = 0x7F // absurd length
	f.Add(huge)
	flipped := append([]byte(nil), valid.Bytes()...)
	flipped[FrameHeaderLen+1] ^= 0x10 // checksum mismatch
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, rd := range []io.Reader{bytes.NewReader(data), io.MultiReader(bytes.NewReader(data))} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			version, payload, err := ReadFrameBytes(rd, 1, 2, 3)
			runtime.ReadMemStats(&after)
			if d := after.TotalAlloc - before.TotalAlloc; d > 2*uint64(len(data))+readChunk+4096 {
				t.Fatalf("%d-byte input allocated %d bytes", len(data), d)
			}
			if err != nil {
				if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrBadVersion) && !errors.Is(err, ErrCorrupt) &&
					!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("non-sentinel error: %v", err)
				}
				continue
			}
			var again bytes.Buffer
			if err := WriteFrameBytes(&again, version, payload); err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(data, again.Bytes()) {
				t.Fatalf("frame of %d payload bytes does not re-encode to its input", len(payload))
			}
		}
	})
}
