// Package wal makes live-ingested routing state survive restarts: a
// write-ahead log plus checkpointing, the durability layer under
// internal/serve's copy-on-write ingestion.
//
// Without it the online loop is a cache — every trajectory ingested at
// runtime mutates only the in-memory snapshot, and a process restart
// silently rolls the router back to its build artifact. With it the
// loop is a database: matched trajectory batches are appended to an
// append-only log *before* the snapshot swap that applies them, and a
// restart replays the log over the latest checkpoint to reconstruct
// exactly the state the crashed process had durably acknowledged.
//
// # The log
//
// One file per WAL directory (wal.log): a header frame naming the road
// network it belongs to (an FNV-64a fingerprint of the network's TSV
// serialization, plus the base sequence), followed by length-prefixed,
// checksummed, sequence-numbered records (internal/codec's record
// framing). Each record is one ingest batch, gob-encoded with the
// ingest mode it was applied under, so replay applies it identically.
// Appends go out in a single write; the fsync policy (SyncAlways /
// SyncNone) chooses between machine-crash and process-crash
// durability.
//
// # Checkpoints
//
// A checkpoint (checkpoint.l2r) folds the log into the router: a small
// frame with the log sequence it covers, the trajectory-ID watermark
// and the road identity, then the serving snapshot exactly as
// core.Router.Save writes it (save generation advanced) — written to a
// temp file and atomically renamed; the log is then rotated to a fresh
// file starting at that sequence. Because the covered sequence travels
// inside the checkpoint file itself, a crash between the rename and the
// rotation is harmless — recovery skips already-covered records by
// sequence. ReadCheckpoint still reads the v1 layout (one gob frame
// around a copy of the artifact).
//
// # Recovery
//
// Open scans an existing log end to end before serving: the road
// identity must match, checksums and sequence continuity must verify,
// and surviving records are handed to the caller for replay. The
// identity comes from the base router when it carries one
// (IdentityOfRouter: a saved or v3-loaded router), and
// ReadCheckpointOnto restores a checkpoint written against that
// identity onto the base's decoded road network, so a restart
// serializes no network and parses one. A torn
// final record (a crash mid-append) is truncated and tolerated;
// corruption anywhere else fails loudly — a damaged log is never
// silently half-replayed. Recovery never writes, so it is idempotent:
// crashing during recovery and recovering again lands in the same
// state.
//
// internal/serve wires this under Engine and Fleet (per-tenant WAL
// directories); OPERATIONS.md is the operator-facing runbook.
package wal
