package serve

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// durability is an engine's write-ahead-log attachment. The mutable
// fields (sinceCkpt, the log's append state) are guarded by the
// engine's writeMu — appends, checkpoints and rotations all run on the
// serialized write path; counters read by Stats are atomics.
type durability struct {
	log   *wal.Log
	dir   string
	every int // trajectories between automatic checkpoints; <0 disables

	sinceCkpt int           // trajectories appended since the last checkpoint (writeMu)
	ckptGen   atomic.Uint64 // artifact generation the last checkpoint carries

	appends            atomic.Uint64
	appendedTrajs      atomic.Uint64
	appendFailures     atomic.Uint64
	walSeq             atomic.Uint64 // next WAL sequence, readable without writeMu
	checkpoints        atomic.Uint64
	checkpointFailures atomic.Uint64
	lastCheckpointUnix atomic.Int64

	// Recovery facts, written once before the engine serves.
	recoveredFromCheckpoint bool
	replayedRecords         int
	replayedTrajs           int
	tornTail                bool
	recoveredSeq            uint64

	// unclaimedTrajs is replayedTrajs until TakeRecoveredEvidence hands
	// it over, then 0 (writeMu).
	unclaimedTrajs int
}

// NewDurableEngine wraps a built router for serving with durable
// ingestion. With Options.WALDir empty it is exactly NewEngine; with a
// WAL directory it first recovers whatever a previous process left
// there:
//
//  1. If a checkpoint exists, it replaces r as the serving base (after
//     verifying both sit on the same road network — a mismatch refuses
//     to serve rather than answering from the wrong world). r is then
//     only the reference the checkpoint is verified against and
//     restored onto (its road and hierarchy); pass the deployment's
//     base artifact.
//  2. The write-ahead log is scanned end to end: checksums, sequence
//     continuity and road identity must verify. A torn final record (a
//     crash mid-append) is truncated and tolerated; corruption anywhere
//     else fails construction — fail loud, don't serve.
//  3. Surviving records are replayed onto the base in append order,
//     exactly as the original ingests applied them, on the hierarchy
//     live ingest uses: a checkpoint restored onto the base's road with
//     the base's contraction order shares the base's topology and
//     metric table (core.LoadOnto), so a restart derives one hierarchy.
//     Recovery never writes, so crashing during recovery and recovering
//     again is idempotent.
//
// The recovered engine then serves and appends to the same log: the
// replay has finished before NewDurableEngine returns, so a listener
// opened on the engine afterwards never sees a partial state.
func NewDurableEngine(r *core.Router, opt Options) (*Engine, error) {
	opt = opt.withDefaults()
	if opt.WALDir == "" {
		return NewEngine(r, opt), nil
	}

	d := &durability{dir: opt.WALDir, every: opt.CheckpointEvery}

	// The base's identity comes with it when it was saved or loaded
	// (one encoding pass otherwise); the checkpoint and the log header
	// carry theirs, so neither is encoded to be compared. A checkpoint
	// on the base's network is restored onto the base's decoded road
	// and hierarchy rather than decoding and deriving its own.
	baseID := wal.IdentityOfRouter(r)

	base := r
	var fromSeq, idWatermark uint64
	ckpt, ok, err := wal.ReadCheckpointOnto(opt.WALDir, r, baseID.Hash)
	if err != nil {
		return nil, fmt.Errorf("serve: recovering %s: %w", opt.WALDir, err)
	}
	if ok {
		if ckpt.RoadHash != baseID.Hash {
			return nil, fmt.Errorf("serve: checkpoint in %s was written against a different road network than the supplied router — refusing to serve (move the WAL directory aside to discard its state)", opt.WALDir)
		}
		base = ckpt.Router
		fromSeq = ckpt.Seq
		idWatermark = ckpt.NextTrajectoryID
		d.recoveredFromCheckpoint = true
	}

	var batches []wal.Batch
	log, ri, err := wal.Open(opt.WALDir, baseID, opt.WALSync, fromSeq, func(seq uint64, b wal.Batch) error {
		batches = append(batches, b)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("serve: recovering %s: %w", opt.WALDir, err)
	}
	d.log = log
	d.replayedRecords = ri.Records
	d.replayedTrajs = ri.Trajectories
	d.unclaimedTrajs = ri.Trajectories
	d.tornTail = ri.Torn
	d.recoveredSeq = ri.NextSeq
	d.walSeq.Store(ri.NextSeq)
	d.ckptGen.Store(base.Meta().Generation)

	if opt.recoverHold != nil {
		<-opt.recoverHold
	}
	for _, b := range batches {
		applyBatch(nil, base, b)
		for _, t := range b.Trajs {
			if t.ID >= 0 && uint64(t.ID+1) > idWatermark {
				idWatermark = uint64(t.ID + 1)
			}
		}
	}
	e := NewEngine(base, opt)
	e.dur = d
	// Keep NextTrajectoryID unique across restarts: IDs handed out by
	// this process must not collide with the checkpoint's watermark or
	// with any replayed trajectory's ID.
	e.trajSeq.Store(idWatermark)
	return e, nil
}

// Durable reports whether the engine journals ingested batches to a
// write-ahead log.
func (e *Engine) Durable() bool { return e.dur != nil }

// TakeRecoveredEvidence returns how many trajectories start-up
// recovery replayed from the write-ahead log, handing the count over
// exactly once (a second call — or any call on a non-durable or
// replay-free engine — returns 0). The log holds exactly the evidence
// ingested since the last checkpoint, so internal/maint seeds its
// accumulator from here: a crash never silently forgets evidence that
// had not yet counted toward a rebuild trigger. The batches themselves
// are not kept: the replay folded them into the served router.
func (e *Engine) TakeRecoveredEvidence() int {
	if e.dur == nil {
		return 0
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	n := e.dur.unclaimedTrajs
	e.dur.unclaimedTrajs = 0
	return n
}

// Checkpoint synchronously persists the currently served router as the
// WAL directory's checkpoint (as a core artifact, save generation
// advanced) and rotates the log. A no-op returning nil on a
// non-durable engine. Shutdown checkpoints the same way on its way
// down, so the next start is replay-free.
func (e *Engine) Checkpoint() error {
	if e.dur == nil {
		return nil
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	return e.dur.checkpointLocked(e.snap.Load().base, e.trajSeq.Load())
}

// Close stops the engine's attachments, last attached first — a stream
// pipeline's final flush still reaches the observers attached before it
// and the open write-ahead log — and then releases the log. It does not
// checkpoint: appended records are already durable and replay on the
// next start; Shutdown checkpoints first. Only the first Close or
// Shutdown does anything; later calls return nil. The engine still
// answers queries afterwards, and an ingest still applies in memory but
// is refused by the closed log (durable: false).
func (e *Engine) Close() error { return e.release(false) }

// Shutdown is the planned way down: Close with a checkpoint between
// stopping the attachments and releasing the log, so the next start
// replays nothing. On a non-durable engine it is Close.
func (e *Engine) Shutdown() error { return e.release(true) }

func (e *Engine) release(checkpoint bool) (err error) {
	e.closeOnce.Do(func() {
		// Outside writeMu: a stopping attachment may still ingest.
		atts := *e.attachments.Load()
		for i := len(atts) - 1; i >= 0; i-- {
			atts[i].Close()
		}
		if e.dur == nil {
			return
		}
		e.writeMu.Lock()
		defer e.writeMu.Unlock()
		if checkpoint {
			err = e.dur.checkpointLocked(e.snap.Load().base, e.trajSeq.Load())
		}
		err = errors.Join(err, e.dur.log.Close())
	})
	return err
}

// append journals one batch ahead of its snapshot swap; writeMu held.
func (d *durability) append(b wal.Batch) bool {
	seq, err := d.log.Append(b)
	if err != nil {
		d.appendFailures.Add(1)
		return false
	}
	d.walSeq.Store(seq + 1)
	d.appends.Add(1)
	d.appendedTrajs.Add(uint64(len(b.Trajs)))
	d.sinceCkpt += len(b.Trajs)
	return true
}

// shouldCheckpoint reports whether enough trajectories have accumulated
// since the last checkpoint for an automatic one; writeMu held.
func (d *durability) shouldCheckpoint() bool {
	return d.every >= 0 && d.sinceCkpt >= d.every
}

// checkpointLocked folds the current base into a checkpoint and
// rotates the log; writeMu held. The checkpoint saves a cheap Clone of
// the base positioned at the lineage's current save generation, so the
// serving router itself is never mutated and successive checkpoints
// carry increasing generations.
func (d *durability) checkpointLocked(base *core.Router, nextTrajID uint64) error {
	cl := base.Clone()
	cl.SetGeneration(d.ckptGen.Load())
	if err := wal.WriteCheckpoint(d.dir, cl, d.log.NextSeq(), nextTrajID, d.log.Network()); err != nil {
		d.checkpointFailures.Add(1)
		return err
	}
	d.ckptGen.Store(cl.Meta().Generation) // Save advanced it
	if err := d.log.Rotate(); err != nil {
		// The checkpoint landed, so recovery is already correct (it
		// skips covered records by sequence); a failed rotation only
		// leaves the old log around. Count it and move on.
		d.checkpointFailures.Add(1)
	}
	d.sinceCkpt = 0
	d.checkpoints.Add(1)
	d.lastCheckpointUnix.Store(time.Now().UnixNano())
	return nil
}

// DurabilityStats describes the write-ahead-log attachment of an
// engine: what this process has journaled and checkpointed, and what
// its start-up recovery found. Absent from Stats on non-durable
// engines. OPERATIONS.md documents how to read each counter.
type DurabilityStats struct {
	// WALRecords / WALTrajectories count the batches (one record = one
	// ingest swap) and trajectories appended since this process
	// started; WALBytes is the log's current on-disk size (reset by
	// each checkpoint's rotation).
	WALRecords      uint64 `json:"wal_records"`
	WALTrajectories uint64 `json:"wal_trajectories"`
	WALBytes        int64  `json:"wal_bytes"`
	// WALAppendFailures counts batches that could not be journaled
	// (disk full, I/O error) and therefore serve from memory only —
	// their /ingest replies carried durable:false. Non-zero means a
	// restart loses data: page the operator.
	WALAppendFailures uint64 `json:"wal_append_failures"`
	// Checkpoints / CheckpointFailures count checkpoint attempts this
	// process made; SinceLastCheckpoint is the age of the newest one
	// (0 when this process has not checkpointed yet).
	Checkpoints         uint64        `json:"checkpoints"`
	CheckpointFailures  uint64        `json:"checkpoint_failures"`
	SinceLastCheckpoint time.Duration `json:"since_last_checkpoint_ns,omitempty"`
	// CheckpointGeneration is the artifact save generation the next
	// checkpoint will advance from (the last checkpoint's, or the
	// recovered base's).
	CheckpointGeneration uint64 `json:"checkpoint_generation"`
	// Recovery facts from this process's start: whether a checkpoint
	// was found and used, how many WAL records/trajectories were
	// replayed on top of it, whether a torn final record (crash
	// mid-append) was truncated, and the absolute WAL sequence the
	// recovered state reached — the total number of batches ever
	// durably acknowledged in this WAL directory's lineage.
	RecoveredFromCheckpoint bool   `json:"recovered_from_checkpoint"`
	ReplayedRecords         int    `json:"replayed_records"`
	ReplayedTrajectories    int    `json:"replayed_trajectories"`
	TornTailTruncated       bool   `json:"torn_tail_truncated"`
	RecoveredSeq            uint64 `json:"recovered_seq"`
}

func (d *durability) stats() DurabilityStats {
	ds := DurabilityStats{
		WALRecords:              d.appends.Load(),
		WALTrajectories:         d.appendedTrajs.Load(),
		WALBytes:                d.log.Size(),
		WALAppendFailures:       d.appendFailures.Load(),
		Checkpoints:             d.checkpoints.Load(),
		CheckpointFailures:      d.checkpointFailures.Load(),
		CheckpointGeneration:    d.ckptGen.Load(),
		RecoveredFromCheckpoint: d.recoveredFromCheckpoint,
		ReplayedRecords:         d.replayedRecords,
		ReplayedTrajectories:    d.replayedTrajs,
		TornTailTruncated:       d.tornTail,
		RecoveredSeq:            d.recoveredSeq,
	}
	if last := d.lastCheckpointUnix.Load(); last > 0 {
		ds.SinceLastCheckpoint = time.Since(time.Unix(0, last))
	}
	return ds
}
