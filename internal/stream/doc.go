// Package stream is the streaming GPS ingestion pipeline: the missing
// front half of the online loop that turns raw per-vehicle GPS point
// feeds — the paper's actual input (Denmark at 1 Hz, Chengdu taxis at
// 0.03–0.1 Hz) — into trajectory batches for the serving layer, so
// sparse trajectories continuously arriving continuously refresh the
// learned preferences that serving reads.
//
// Three stages, each independently usable:
//
//	vehicle GPS points (Push / POST /stream NDJSON / Replay)
//	    │
//	Sessionizer — per-vehicle sessions: a bounded reorder window
//	    │         absorbs out-of-order and duplicate points, and
//	    │         segments split on time gaps, idle dwell and
//	    │         teleport-distance outliers
//	    │ per accepted point
//	mapmatch.OnlineMatcher — windowed incremental Viterbi that emits
//	    │         the stable prefix as points arrive and, at segment
//	    │         close, returns what the offline pass would — which
//	    │         is this decoder, run to completion
//	    │ closed, matched trajectories
//	Ingestor — adaptive batching: trajectories accumulate in a bounded
//	    │         queue and flush into serve.Engine.IngestMatched by
//	    │         count (MaxBatch), age (FlushAge) or shutdown,
//	    │         amortizing the copy-on-write snapshot swap across
//	    │         many trajectories; overflow is dropped and counted
//	    ▼
//	serve.Engine (next snapshot generation)
//
// Attach wires an Ingestor into a serve.Engine through the engine's one
// attachment seam (serve.Attachment, which Ingestor implements):
// POST /stream appears on the engine's HTTP API and pipeline health in
// Stats().Stream. For every current and future tenant of a serve.Fleet
// (the /t/{tenant}/stream endpoint) call Attach from a Fleet.Attach
// function. The engine's Close stops the pipeline — final flush
// included, journaled before the write-ahead log is released — so a
// tenant's pipeline stops when the tenant is removed or the fleet
// closes. Replay feeds recorded (ReadNDJSON) or simulated
// (PointsFrom) point streams at a configurable rate multiplier, for
// demos and soak tests.
//
// Concurrency: Push is safe for concurrent use across vehicles (one
// lock per session, map matching sharded by vehicle hash); points for
// one vehicle must arrive from one goroutine at a time or ordering is
// undefined beyond the reorder window. Flushing happens on a single
// background goroutine; it never blocks Push (rule 3 of the snapshot
// contract: the swap happens off the query path, and off the
// ingestion path too).
package stream
