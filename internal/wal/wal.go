package wal

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// SyncPolicy selects how hard an append pushes bytes toward the disk.
type SyncPolicy int

const (
	// SyncAlways fsyncs the log after every append: a batch reported
	// durable survives a machine crash, not just a process kill.
	SyncAlways SyncPolicy = iota
	// SyncNone hands appends to the OS page cache and lets the kernel
	// schedule the write-back. A SIGKILL'd process loses nothing; a
	// power loss may lose the last few seconds. Checkpoints still sync.
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// LogName is the write-ahead log's file name inside a WAL directory.
const LogName = "wal.log"

// headerVersion versions the log file's header frame, and with it the
// layout of the records that follow. v1 headers hashed the road's text
// serialization; v2 headers and their records were gob. Open refuses
// both with codec.ErrBadVersion rather than report a foreign road or
// decode a record it cannot read.
const headerVersion uint16 = 3

// maxKeptBuf is the largest record buffer a Log keeps between appends:
// an outsized batch's buffer is released once it is written.
const maxKeptBuf = 64 << 10

// NetworkID fingerprints the road network a log (or checkpoint)
// belongs to: the FNV-64a hash of the network's road section
// (roadnet.Graph.Append, the bytes an artifact stores) plus its
// dimensions for error messages. A saved or loaded router carries it
// (IdentityOfRouter), so a restart computes none.
type NetworkID struct {
	Hash        uint64
	NumVertices int
	NumEdges    int
}

// IdentityOf computes a road network's identity by encoding its road
// section, as core.Router.Save does, and hashing it; the error is
// always nil. Two graphs with the same identity are the same network,
// bit for bit; a WAL or checkpoint is only ever replayed onto a network
// with the identity it was written against.
func IdentityOf(g *roadnet.Graph) (NetworkID, error) {
	var e codec.Enc
	g.Append(&e)
	h := fnv.New64a()
	h.Write(e.B)
	return NetworkID{Hash: h.Sum64(), NumVertices: g.NumVertices(), NumEdges: g.NumEdges()}, nil
}

// IdentityOfRouter is IdentityOf(r.Road()), taken from r when r knows
// its road's identity — it was saved or loaded
// (core.Router.RoadIdentity) — instead of encoding the network again.
func IdentityOfRouter(r *core.Router) NetworkID {
	g := r.Road()
	if h, ok := r.RoadIdentity(); ok {
		return NetworkID{Hash: h, NumVertices: g.NumVertices(), NumEdges: g.NumEdges()}
	}
	id, _ := IdentityOf(g) // its error is always nil
	return id
}

// Batch is the append unit: the trajectories of one ingest call, plus
// the ingest mode they were applied with so replay applies them
// identically.
type Batch struct {
	// SkipMapMatching mirrors core.IngestOptions.SkipMapMatching at
	// append time: true for already-matched paths (HTTP /ingest, the
	// streaming pipeline), false for raw-GPS ingests that re-run the
	// matcher on replay.
	SkipMapMatching bool
	Trajs           []*traj.Trajectory
}

// RecoveryInfo reports what Open found in an existing log.
type RecoveryInfo struct {
	// Records and Trajectories count what was handed to the replay
	// callback (sequence >= fromSeq); Skipped counts records below
	// fromSeq, already folded into the checkpoint.
	Records      int
	Trajectories int
	Skipped      int
	// Torn reports that the final record was incomplete — a crash
	// mid-append — and was truncated away.
	Torn bool
	// NextSeq is the sequence the next Append will carry: the total
	// number of batches ever durably appended to this log's lineage.
	NextSeq uint64
}

// Log is an append-only, length-prefixed, checksummed record log bound
// to one road network. Appends are not safe for concurrent use; the
// serving layer serializes them behind its write lock.
type Log struct {
	dir  string
	sync SyncPolicy
	net  NetworkID

	f       *os.File
	nextSeq uint64
	size    atomic.Int64
	buf     []byte // the last record Append laid out, kept for the next
}

// Open opens dir's log for appending, creating the directory and file
// if absent. An existing log is scanned end to end first: the header's
// road identity must match net, every record's checksum and sequence
// must verify, and each record with sequence >= fromSeq is decoded and
// handed to fn in order (fn may be nil to scan without replaying). A
// torn final record — the signature of a crash mid-append — is
// truncated away and reported in RecoveryInfo, and a file that ends
// inside its own header frame (a crash during log creation, before
// anything could have been acknowledged) is recreated; corruption
// anywhere else fails loudly so a damaged log is never silently
// half-replayed.
func Open(dir string, net NetworkID, sync SyncPolicy, fromSeq uint64, fn func(seq uint64, b Batch) error) (*Log, RecoveryInfo, error) {
	var ri RecoveryInfo
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, ri, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	path := filepath.Join(dir, LogName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, ri, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	l := &Log{dir: dir, sync: sync, net: net, f: f}

	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, ri, fmt.Errorf("wal: stat %s: %w", path, err)
	}
	if torn, err := headerTorn(f, info.Size()); err != nil {
		f.Close()
		return nil, ri, err
	} else if info.Size() == 0 || torn {
		// Fresh log (or one whose creation crashed mid-header — nothing
		// was ever appended to it): records start where recovery left
		// off, so a log created right after loading a checkpoint
		// continues its lineage's sequence.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, ri, fmt.Errorf("wal: resetting %s: %w", path, err)
		}
		if err := l.writeHeader(f, fromSeq); err != nil {
			f.Close()
			return nil, ri, err
		}
		l.nextSeq = fromSeq
		ri.NextSeq = fromSeq
		return l, ri, nil
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, ri, fmt.Errorf("wal: seeking %s: %w", path, err)
	}

	br := &countingReader{r: f}
	_, payload, err := codec.ReadFrameBytes(br, headerVersion)
	var hdr header
	if err == nil {
		hdr, err = decodeHeader(payload)
	}
	if err != nil {
		f.Close()
		return nil, ri, fmt.Errorf("wal: reading %s header: %w", path, err)
	}
	if hdr.RoadHash != net.Hash {
		f.Close()
		return nil, ri, fmt.Errorf("wal: %s belongs to a different road network (log %d vertices / %d edges, hash %016x; serving %d / %d, hash %016x)",
			path, hdr.NumVertices, hdr.NumEdges, hdr.RoadHash, net.NumVertices, net.NumEdges, net.Hash)
	}
	if hdr.BaseSeq > fromSeq {
		f.Close()
		return nil, ri, fmt.Errorf("wal: %s begins at sequence %d but recovery starts at %d — the covering checkpoint is missing", path, hdr.BaseSeq, fromSeq)
	}

	good := br.n // offset after the last fully-verified record
	expect := hdr.BaseSeq
	for {
		seq, payload, err := codec.ReadRecord(br)
		if err == io.EOF {
			break
		}
		if errors.Is(err, codec.ErrTorn) {
			ri.Torn = true
			break
		}
		if err != nil {
			f.Close()
			return nil, ri, fmt.Errorf("wal: %s at offset %d: %w", path, good, err)
		}
		if seq != expect {
			f.Close()
			return nil, ri, fmt.Errorf("wal: %s at offset %d: %w: sequence %d, expected %d", path, good, codec.ErrCorrupt, seq, expect)
		}
		if seq < fromSeq {
			ri.Skipped++
		} else {
			b, err := decodeBatch(payload)
			if err != nil {
				f.Close()
				return nil, ri, fmt.Errorf("wal: %s record %d: %w", path, seq, err)
			}
			if fn != nil {
				if err := fn(seq, b); err != nil {
					f.Close()
					return nil, ri, err
				}
			}
			ri.Records++
			ri.Trajectories += len(b.Trajs)
		}
		expect = seq + 1
		good = br.n
	}
	if ri.Torn {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, ri, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, ri, fmt.Errorf("wal: seeking %s: %w", path, err)
	}
	l.nextSeq = expect
	l.size.Store(good)
	ri.NextSeq = expect
	return l, ri, nil
}

// headerTorn reports whether the file ends inside its own header frame
// — the signature of a crash during log creation. writeHeader syncs
// before the first Append can run, so such a file provably holds no
// acknowledged records and is safe to recreate. A file whose header
// bytes are all present but wrong is NOT torn; Open fails loudly on it.
func headerTorn(f *os.File, size int64) (bool, error) {
	if size == 0 {
		return false, nil
	}
	if size < codec.FrameHeaderLen {
		return true, nil
	}
	prefix := make([]byte, codec.FrameHeaderLen)
	if _, err := f.ReadAt(prefix, 0); err != nil {
		return false, fmt.Errorf("wal: reading header prefix: %w", err)
	}
	if n, ok := codec.FrameLen(prefix); ok && size < n {
		return true, nil
	}
	return false, nil
}

// countingReader tracks how many bytes have been consumed, so Open
// knows the exact offset of the last verified record.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (l *Log) writeHeader(f *os.File, baseSeq uint64) error {
	hdr := header{RoadHash: l.net.Hash, NumVertices: l.net.NumVertices, NumEdges: l.net.NumEdges, BaseSeq: baseSeq}
	var buf bytes.Buffer
	codec.WriteFrameBytes(&buf, headerVersion, hdr.append(nil)) // a bytes.Buffer cannot fail
	if _, err := f.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("wal: writing header: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing header: %w", err)
	}
	l.size.Store(int64(buf.Len()))
	return nil
}

// Append writes one batch as the next record and, under SyncAlways,
// fsyncs it. On any failure — the write or the fsync — the log rolls
// back to the last good record before returning, so a half-appended or
// unsynced record can never sit in the file while the sequence counter
// stays behind (the next append would duplicate its sequence and
// poison recovery). A batch no record can carry (a nil trajectory, a
// negative vertex ID) is refused before anything is written.
//
// The record is laid out in a buffer the log keeps, header space first,
// and written from it in place: a steady-state append allocates
// nothing.
func (l *Log) Append(b Batch) (seq uint64, err error) {
	rec, err := appendBatch(append(l.buf[:0], make([]byte, codec.RecordLen(0))...), b)
	if cap(rec) <= maxKeptBuf {
		l.buf = rec
	} else {
		l.buf = nil
	}
	if err != nil {
		return l.nextSeq, err
	}
	seq = l.nextSeq
	if err := codec.WriteRecord(l.f, seq, rec); err != nil {
		l.rollback()
		return seq, err
	}
	if l.sync == SyncAlways {
		if err := l.f.Sync(); err != nil {
			l.rollback()
			return seq, fmt.Errorf("wal: fsync: %w", err)
		}
	}
	l.nextSeq++
	l.size.Add(int64(len(rec)))
	return seq, nil
}

// rollback drops whatever partial bytes an unfinished append left
// behind; best effort (a failing truncate leaves a torn tail, which
// recovery tolerates).
func (l *Log) rollback() {
	if err := l.f.Truncate(l.size.Load()); err == nil {
		l.f.Seek(l.size.Load(), io.SeekStart)
	}
}

// NextSeq returns the sequence the next Append will carry.
func (l *Log) NextSeq() uint64 { return l.nextSeq }

// Size returns the log's current on-disk size in bytes. Safe to read
// concurrently with appends.
func (l *Log) Size() int64 { return l.size.Load() }

// Network returns the road-network identity the log is bound to.
func (l *Log) Network() NetworkID { return l.net }

// Rebind switches the log to a different road network, effective at
// the next Rotate (which writes the new identity into the fresh
// header). The serving layer calls it when a published router replaces
// the engine's world, immediately before the checkpoint + rotation
// that reset the durability baseline.
func (l *Log) Rebind(net NetworkID) { l.net = net }

// Rotate resets the log after a checkpoint covering every record so
// far: a fresh file whose header starts the sequence at NextSeq
// atomically replaces the old one. Safe against crashes at any point —
// until the rename lands, recovery skips the old records by sequence
// (they are below the checkpoint's covered sequence). Once the rename
// has landed the in-memory handle always follows it, even if the
// directory fsync afterwards fails (that error is reported, but
// appends must go to the file recovery will actually read).
func (l *Log) Rotate() error {
	tmp, err := os.CreateTemp(l.dir, LogName+".rotate-*")
	if err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	fresh := &Log{dir: l.dir, sync: l.sync, net: l.net, f: tmp}
	if err := fresh.writeHeader(tmp, l.nextSeq); err != nil {
		tmp.Close()
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(l.dir, LogName)); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: rotate rename: %w", err)
	}
	l.f.Close()
	l.f = tmp
	l.size.Store(fresh.size.Load())
	return syncDir(l.dir)
}

// Close releases the log's file handle. Appended records are already
// on their way to disk (or on it, under SyncAlways); Close does not
// checkpoint.
func (l *Log) Close() error { return l.f.Close() }

// syncDir fsyncs a directory so a just-renamed file inside it survives
// a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: syncing %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: syncing %s: %w", dir, err)
	}
	return nil
}
