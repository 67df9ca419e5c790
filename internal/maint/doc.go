// Package maint keeps a served router converged with its evidence: a
// background maintainer attached to a serve.Engine that watches rebuild
// triggers on the engine's books — the preference drift
// (serve.Engine.Drift) and the paths folded in (serve.Engine.Accrual)
// since the model last installed, and the time since that install —
// and, when one fires, drives a clone-rebuild-publish cycle: core.Retransduce
// re-runs preference learning, transduction and B-edge materialization
// over the full path sets the region graph accumulated, on a
// copy-on-write clone off the hot path, and the result swaps in
// through the engine's normal publish path.
//
// The cycle's correctness rests on two contracts proved by the
// convergence and crash tests:
//
//   - Convergence: a router maintained online (incremental ingest
//     batches + Retransduce) equals one rebuilt from scratch over the
//     same road network, region partition and union of all evidence —
//     path sets, transfer centers and transduction inputs all
//     accumulate canonically. A Save → Load router holds the same road,
//     bit for bit, so this holds across restarts too.
//   - Crash equivalence: Retransduce is idempotent and the publish is
//     an atomic snapshot swap followed by a checkpoint, so a crash at
//     any point recovers either the old or the new model — never a
//     hybrid — and the engine's evidence count, started at what the
//     WAL replay folded in, re-arms the triggers.
//
// Attach wires a maintainer onto one engine (Maintainer implements
// serve.Attachment, and the engine's Close stops it); for every tenant
// of a serve.Fleet, call Attach from a Fleet.Attach function, and the
// tenant's engine stops it when the tenant leaves. Stats surface through
// Stats().Maintenance, the l2r_maint_* Prometheus family and
// GET /debug/maint.
package maint
