package codec

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
)

var magic = [4]byte{'L', '2', 'R', 'A'}

// recMagic opens every record written by WriteRecord; a stream
// positioned anywhere else fails fast instead of decoding garbage.
var recMagic = [2]byte{'L', 'W'}

// Errors returned by ReadFrame and ReadRecord. Wrapped with context;
// test with errors.Is.
var (
	ErrBadMagic   = errors.New("codec: bad magic (not an L2R artifact)")
	ErrBadVersion = errors.New("codec: unsupported artifact version")
	ErrCorrupt    = errors.New("codec: checksum mismatch (artifact corrupted)")
	// ErrTorn marks a record whose bytes run out before its declared
	// length — the signature of a crash mid-append. Unlike ErrCorrupt
	// it is recoverable: everything before the torn record is intact.
	ErrTorn = errors.New("codec: torn record (truncated mid-write)")
)

// WriteFrame gob-encodes payload and writes one checksummed frame.
func WriteFrame(w io.Writer, version uint16, payload any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
		return fmt.Errorf("codec: encoding payload: %w", err)
	}
	return WriteFrameBytes(w, version, buf.Bytes())
}

// WriteFrameBytes writes payload, already encoded, as one checksummed
// frame: for payloads laid out by hand (Enc) rather than by gob.
func WriteFrameBytes(w io.Writer, version uint16, payload []byte) error {
	h := fnv.New64a()
	h.Write(payload)

	var header [FrameHeaderLen]byte
	copy(header[:4], magic[:])
	binary.BigEndian.PutUint16(header[4:6], version)
	binary.BigEndian.PutUint64(header[6:14], uint64(len(payload)))
	binary.BigEndian.PutUint64(header[14:22], h.Sum64())
	if _, err := w.Write(header[:]); err != nil {
		return fmt.Errorf("codec: writing header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("codec: writing payload: %w", err)
	}
	return nil
}

// ReadFrame reads one frame, verifies integrity and gob-decodes the
// payload into out (a pointer).
func ReadFrame(r io.Reader, version uint16, out any) error {
	_, payload, err := ReadFrameBytes(r, version)
	if err != nil {
		return err
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(out); err != nil {
		return fmt.Errorf("codec: decoding payload: %w", err)
	}
	return nil
}

// FrameHeaderLen is the on-disk size of a frame header (magic,
// version, payload length, checksum).
const FrameHeaderLen = 4 + 2 + 8 + 8

// FrameLen inspects a frame header prefix and returns the total
// on-disk frame length (header + payload). ok is false when b is
// shorter than a header or does not start with the frame magic —
// callers distinguishing "file truncated inside its first frame" from
// "file corrupt" use it before paying for a full ReadFrame.
func FrameLen(b []byte) (n int64, ok bool) {
	if len(b) < FrameHeaderLen || !bytes.Equal(b[:4], magic[:]) {
		return 0, false
	}
	return FrameHeaderLen + int64(binary.BigEndian.Uint64(b[6:14])), true
}

// ReadFrameBytes reads one frame of any of the listed versions and
// returns its version and its verified payload, undecoded.
func ReadFrameBytes(r io.Reader, versions ...uint16) (uint16, []byte, error) {
	f, err := ReadFrameUnverified(r, versions...)
	if err == nil {
		err = f.Verify()
	}
	if err != nil {
		return 0, nil, err
	}
	return f.Version, f.Payload, nil
}

// Frame is a frame read by ReadFrameUnverified: its version, its
// payload and the checksum its header claims for the payload.
type Frame struct {
	Version uint16
	Payload []byte
	sum     uint64
}

// Verify returns ErrCorrupt unless the payload matches the checksum the
// frame's header claims.
func (f Frame) Verify() error {
	h := fnv.New64a()
	h.Write(f.Payload)
	if h.Sum64() != f.sum {
		return ErrCorrupt
	}
	return nil
}

// ReadFrameUnverified is ReadFrameBytes without the checksum: magic,
// version and length are checked and the payload read in full, but the
// payload is not verified until the caller calls Verify. Only a
// decoder that is safe on any payload may read it before then.
func ReadFrameUnverified(r io.Reader, versions ...uint16) (Frame, error) {
	var header [FrameHeaderLen]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return Frame{}, fmt.Errorf("codec: reading header: %w", err)
	}
	if !bytes.Equal(header[:4], magic[:]) {
		return Frame{}, ErrBadMagic
	}
	version := binary.BigEndian.Uint16(header[4:6])
	if !slices.Contains(versions, version) {
		return Frame{}, fmt.Errorf("%w: artifact v%d, reader accepts v%v", ErrBadVersion, version, versions)
	}
	n := binary.BigEndian.Uint64(header[6:14])
	const maxPayload = 1 << 34 // 16 GiB sanity bound
	if n > maxPayload {
		return Frame{}, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, n)
	}
	payload, err := readPayload(r, n)
	if err != nil {
		return Frame{}, fmt.Errorf("%w: short payload: %v", ErrCorrupt, err)
	}
	return Frame{Version: version, Payload: payload, sum: binary.BigEndian.Uint64(header[14:22])}, nil
}

// readChunk is how far a payload buffer may run ahead of the bytes that
// have arrived.
const readChunk = 256 << 10

// readPayload reads exactly n bytes. The claimed length is untrusted
// until the bytes arrive, so the buffer starts at readChunk and at most
// doubles as they do; only a reader that says it holds n (bytes.Reader)
// gets them in one allocation.
func readPayload(r io.Reader, n uint64) ([]byte, error) {
	if l, ok := r.(interface{ Len() int }); ok && uint64(max(l.Len(), 0)) >= n {
		buf := make([]byte, n)
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	buf := make([]byte, 0, min(n, readChunk))
	for uint64(len(buf)) < n {
		buf = slices.Grow(buf, int(min(n-uint64(len(buf)), uint64(max(len(buf), readChunk)))))
		k, err := io.ReadFull(r, buf[len(buf):int(min(uint64(cap(buf)), n))])
		if buf = buf[:len(buf)+k]; err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Record framing — the unit of append-only logs (internal/wal). A
// record is one length-prefixed, checksummed, sequence-numbered blob:
//
//	[2]magic | uint32 len | uint64 seq | uint64 fnv64a(payload) | uint64 fnv64a(header) | payload
//
// The header carries its own checksum so a bit flip in the length
// field reads as corruption (fail loud), not as a record that happens
// to run past the end of the file (which would be silently "torn" and
// truncate good data after it). Unlike frames, records carry no
// version (the log file's header frame does) and are written in a
// single Write call so a crash tears at most the final record.

// maxRecord bounds a single record's payload; larger lengths are
// treated as corruption rather than allocated.
const maxRecord = 1 << 30

// recHeaderLen is the on-disk size of a record header: magic, payload
// length, sequence, payload checksum, header checksum.
const recHeaderLen = 2 + 4 + 8 + 8 + 8

// RecordLen returns the on-disk size of a record with the given
// payload length.
func RecordLen(payloadLen int) int64 { return int64(recHeaderLen + payloadLen) }

// WriteRecord appends one record to w. Header and payload go out in
// one Write so a crash mid-append leaves a torn tail, never an
// interior hole.
func WriteRecord(w io.Writer, seq uint64, payload []byte) error {
	if len(payload) > maxRecord {
		return fmt.Errorf("codec: record payload %d exceeds %d bytes", len(payload), maxRecord)
	}
	buf := make([]byte, recHeaderLen+len(payload))
	copy(buf[:2], recMagic[:])
	binary.BigEndian.PutUint32(buf[2:6], uint32(len(payload)))
	binary.BigEndian.PutUint64(buf[6:14], seq)
	h := fnv.New64a()
	h.Write(payload)
	binary.BigEndian.PutUint64(buf[14:22], h.Sum64())
	h = fnv.New64a()
	h.Write(buf[:22])
	binary.BigEndian.PutUint64(buf[22:30], h.Sum64())
	copy(buf[recHeaderLen:], payload)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("codec: writing record: %w", err)
	}
	return nil
}

// ReadRecord reads the next record from r. It returns io.EOF at a
// clean end of stream, ErrTorn (wrapped) when a record with a valid
// header runs out of bytes — the signature of a crash mid-append — and
// ErrCorrupt (wrapped) when the bytes are wrong: bad magic, a header
// or payload checksum mismatch, an implausible length.
func ReadRecord(r io.Reader) (seq uint64, payload []byte, err error) {
	var header [recHeaderLen]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: short header: %v", ErrTorn, err)
	}
	if !bytes.Equal(header[:2], recMagic[:]) {
		return 0, nil, fmt.Errorf("%w: bad record magic", ErrCorrupt)
	}
	h := fnv.New64a()
	h.Write(header[:22])
	if h.Sum64() != binary.BigEndian.Uint64(header[22:30]) {
		return 0, nil, fmt.Errorf("%w: record header checksum mismatch", ErrCorrupt)
	}
	n := binary.BigEndian.Uint32(header[2:6])
	if n > maxRecord {
		return 0, nil, fmt.Errorf("%w: implausible record length %d", ErrCorrupt, n)
	}
	seq = binary.BigEndian.Uint64(header[6:14])
	want := binary.BigEndian.Uint64(header[14:22])
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("%w: short payload: %v", ErrTorn, err)
	}
	h = fnv.New64a()
	h.Write(payload)
	if h.Sum64() != want {
		return 0, nil, fmt.Errorf("%w: record %d", ErrCorrupt, seq)
	}
	return seq, payload, nil
}
