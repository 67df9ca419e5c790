package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/codec"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// The record payload and the header frame's payload are laid out by
// hand; doc.go gives both layouts. Records carry no version of their
// own: the header frame's version names their layout.

// minTrajBytes is the fewest bytes a trajectory takes in a record: one
// each for ID, Driver, Depart, the record count, Peak and the two path
// counts.
const minTrajBytes = 7

// appendBatch appends b's record payload to dst. It refuses, before
// dst is used, any batch the decoder would refuse: a nil trajectory or
// a negative vertex ID.
func appendBatch(dst []byte, b Batch) ([]byte, error) {
	for _, t := range b.Trajs {
		if t == nil {
			return dst, errors.New("wal: encoding batch: nil trajectory")
		}
		for _, p := range [2]roadnet.Path{t.Truth, t.Matched} {
			for _, v := range p {
				if v < 0 {
					return dst, fmt.Errorf("wal: encoding batch: trajectory %d has vertex ID %d", t.ID, v)
				}
			}
		}
	}
	e := codec.Enc{B: dst}
	e.Byte(flag(b.SkipMapMatching))
	e.Uvarint(uint64(len(b.Trajs)))
	for _, t := range b.Trajs {
		e.Int(t.ID) // 64-bit zigzag varints, as Dec.Int would refuse past int32
		e.Int(t.Driver)
		e.Float64(t.Depart)
		e.Uvarint(uint64(len(t.Records)))
		for _, r := range t.Records {
			e.Float64(r.T)
			e.Float64(r.P.X)
			e.Float64(r.P.Y)
		}
		e.Byte(flag(t.Peak))
		appendPath(&e, t.Truth)
		appendPath(&e, t.Matched)
	}
	return e.B, nil
}

func flag(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// appendPath writes p's length, then its vertex IDs, each as a zigzag
// delta from the one before (the first from 0).
func appendPath(e *codec.Enc, p roadnet.Path) {
	e.Uvarint(uint64(len(p)))
	prev := roadnet.VertexID(0)
	for _, v := range p {
		e.Int(int(v) - int(prev))
		prev = v
	}
}

// decodeBatch reads a record payload appendBatch wrote. Zero-length
// slices decode as nil. It accepts each batch in exactly one encoding,
// never panics and allocates in proportion to the payload.
func decodeBatch(payload []byte) (Batch, error) {
	d := codec.NewDec(payload)
	var b Batch
	b.SkipMapMatching = readFlag(d)
	if n := d.Count(minTrajBytes); n > 0 {
		ts := make([]traj.Trajectory, n)
		b.Trajs = make([]*traj.Trajectory, n)
		for i := range ts {
			t := &ts[i]
			b.Trajs[i] = t
			t.ID = readInt64(d)
			t.Driver = readInt64(d)
			t.Depart = d.Float64()
			if k := d.Count(3); k > 0 {
				t.Records = make([]traj.GPS, k)
				for j := range t.Records {
					r := &t.Records[j]
					r.T, r.P.X, r.P.Y = d.Float64(), d.Float64(), d.Float64()
				}
			}
			t.Peak = readFlag(d)
			t.Truth = readPath(d)
			t.Matched = readPath(d)
		}
	}
	if err := d.Done(); err != nil {
		return Batch{}, fmt.Errorf("wal: decoding batch: %w", err)
	}
	return b, nil
}

func readFlag(d *codec.Dec) bool {
	switch d.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	d.Fail("flag byte not 0 or 1")
	return false
}

// readInt64 reads a zigzag varint of any int64 (codec.Enc.Int's).
func readInt64(d *codec.Dec) int {
	u := d.Uvarint()
	return int(int64(u>>1) ^ -int64(u&1))
}

func readPath(d *codec.Dec) roadnet.Path {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	p := make(roadnet.Path, n)
	codec.Deltas(d, p, 0)
	return p
}

// header is the log file's first frame: which road network the records
// belong to, and the sequence number of the first record in this file
// (rotation resets the file, not the sequence).
type header struct {
	RoadHash    uint64
	NumVertices int
	NumEdges    int
	BaseSeq     uint64
}

// append writes h's four fields as big-endian uint64s.
func (h header) append(dst []byte) []byte {
	for _, v := range [4]uint64{h.RoadHash, uint64(h.NumVertices), uint64(h.NumEdges), h.BaseSeq} {
		dst = binary.BigEndian.AppendUint64(dst, v)
	}
	return dst
}

func decodeHeader(payload []byte) (header, error) {
	d := codec.NewDec(payload)
	h := header{RoadHash: d.Uint64(), NumVertices: int(min(d.Uint64(), math.MaxInt32)), NumEdges: int(min(d.Uint64(), math.MaxInt32)), BaseSeq: d.Uint64()}
	if err := d.Done(); err != nil {
		return header{}, fmt.Errorf("wal: decoding log header: %w", err)
	}
	return h, nil
}
