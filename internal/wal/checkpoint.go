package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/roadnet"
)

// CheckpointName is the checkpoint's file name inside a WAL directory.
const CheckpointName = "checkpoint.l2r"

// Checkpoint frame versions. A v2 checkpoint file is two frames: this
// package's, whose payload is the three fixed fields below as
// big-endian uint64s, then the router exactly as Router.Save writes it
// (its own frame, checksummed and versioned by core). v1 was one frame
// wrapping a gob checkpointEnvelope, the artifact bytes copied inside;
// ReadCheckpoint still reads it.
const (
	checkpointVersion   uint16 = 2
	checkpointVersionV1 uint16 = 1
	checkpointFixedLen         = 3 * 8
)

// checkpointEnvelope is the v1 checkpoint payload: the core artifact
// with the WAL position it covers.
type checkpointEnvelope struct {
	Seq              uint64
	NextTrajectoryID uint64
	RoadHash         uint64
	Artifact         []byte
}

// Checkpoint is a loaded checkpoint: the recovered router plus the
// bookkeeping stored beside it. Keeping the sequence inside the same
// atomically-renamed file as the router closes the crash window between
// "checkpoint written" and "log rotated": recovery skips log records
// below Seq whether or not the rotation landed.
type Checkpoint struct {
	Router *core.Router
	// Seq is the first WAL sequence NOT folded into the router:
	// recovery replays records with sequence >= Seq on top of it.
	Seq uint64
	// NextTrajectoryID is the engine's trajectory-ID counter at
	// checkpoint time, so IDs handed out after a restart never collide
	// with ones already folded into the router.
	NextTrajectoryID uint64
	// RoadHash is the identity of the road network the router sits on,
	// so recovery can verify it against the configured base without
	// serializing anything.
	RoadHash uint64
}

// WriteCheckpoint persists r as dir's checkpoint covering every WAL
// record below seq, recording the engine's trajectory-ID watermark and
// the road-network identity alongside. The router goes through
// Router.Save — save generation advanced — after a frame holding that
// bookkeeping; both are written to a temp file that is atomically
// renamed, so a crash mid-checkpoint leaves the previous checkpoint
// intact.
func WriteCheckpoint(dir string, r *core.Router, seq, nextTrajID uint64, road NetworkID) error {
	tmp, err := os.CreateTemp(dir, CheckpointName+".tmp-*")
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	var fixed [checkpointFixedLen]byte
	binary.BigEndian.PutUint64(fixed[0:], seq)
	binary.BigEndian.PutUint64(fixed[8:], nextTrajID)
	binary.BigEndian.PutUint64(fixed[16:], road.Hash)
	if err := codec.WriteFrameBytes(tmp, checkpointVersion, fixed[:]); err != nil {
		tmp.Close()
		return err
	}
	if err := r.Save(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: checkpoint save: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: checkpoint sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("wal: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, CheckpointName)); err != nil {
		return fmt.Errorf("wal: checkpoint rename: %w", err)
	}
	return syncDir(dir)
}

// ReadCheckpoint loads dir's checkpoint. ok is false when none exists
// (a cold start); any other failure — unreadable, corrupt, undecodable
// — is an error, because serving from a base artifact while silently
// ignoring a checkpoint would roll learned state back.
func ReadCheckpoint(dir string) (c *Checkpoint, ok bool, err error) {
	return ReadCheckpointOnto(dir, nil, NetworkID{})
}

// ReadCheckpointOnto is ReadCheckpoint for a restart that already holds
// its base road network, road with identity id: a checkpoint written
// against that identity is restored onto road (core.LoadOnto) instead
// of parsing its own copy of the network. With road nil, or a
// checkpoint written against another network, it is ReadCheckpoint.
func ReadCheckpointOnto(dir string, road *roadnet.Graph, id NetworkID) (c *Checkpoint, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, CheckpointName))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("wal: opening checkpoint: %w", err)
	}
	rd := bytes.NewReader(data)
	version, fixed, err := codec.ReadFrameBytes(rd, checkpointVersion, checkpointVersionV1)
	if err != nil {
		return nil, false, fmt.Errorf("wal: reading checkpoint: %w", err)
	}
	c = &Checkpoint{}
	if version == checkpointVersionV1 {
		var env checkpointEnvelope
		if err := gob.NewDecoder(bytes.NewReader(fixed)).Decode(&env); err != nil {
			return nil, false, fmt.Errorf("wal: reading checkpoint: %w", err)
		}
		c.Seq, c.NextTrajectoryID, c.RoadHash = env.Seq, env.NextTrajectoryID, env.RoadHash
		rd = bytes.NewReader(env.Artifact)
	} else {
		if len(fixed) != checkpointFixedLen {
			return nil, false, fmt.Errorf("wal: reading checkpoint: %w: %d-byte header", codec.ErrMalformed, len(fixed))
		}
		c.Seq = binary.BigEndian.Uint64(fixed[0:])
		c.NextTrajectoryID = binary.BigEndian.Uint64(fixed[8:])
		c.RoadHash = binary.BigEndian.Uint64(fixed[16:])
	}
	if c.Router, err = core.LoadOnto(rd, road, id.Hash); err != nil {
		return nil, false, fmt.Errorf("wal: loading checkpoint artifact: %w", err)
	}
	if rd.Len() != 0 {
		return nil, false, fmt.Errorf("wal: loading checkpoint artifact: %w: %d trailing bytes", codec.ErrMalformed, rd.Len())
	}
	return c, true, nil
}
