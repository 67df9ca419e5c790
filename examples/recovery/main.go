// Recovery: live-ingested preference state surviving a crash. A
// durable serving engine journals every ingest batch to a write-ahead
// log before applying it; this walkthrough ingests a live feed,
// "kills" the process mid-flight (the engine is abandoned — no Close,
// no final checkpoint, exactly what SIGKILL leaves behind), restarts
// from the same WAL directory, and proves the restarted engine answers
// like one that never died — while a restart *without* the WAL
// demonstrates what would have been lost.
//
//	go run ./examples/recovery
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/roadnet"
	"repro/internal/traj"
	"repro/l2r"
)

func main() {
	// Offline: build a base router from the first 60% of the data, as
	// a deployment would from its historical artifact. The rest is the
	// live feed.
	road := roadnet.Generate(roadnet.Tiny(7))
	cfg := traj.D2Like(7, 600)
	trips := traj.NewSimulator(road, cfg).Run()
	cut := len(trips) * 6 / 10
	base, err := l2r.Build(road, trips[:cut], l2r.Options{SkipMapMatching: true})
	if err != nil {
		log.Fatal(err)
	}
	live := trips[cut:]
	fmt.Printf("base router built from %d trips; %d live trips to ingest\n", cut, len(live))

	walDir, err := os.MkdirTemp("", "l2r-recovery-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(walDir)

	// Process 1: a durable engine. Every IngestMatched batch is
	// appended to the WAL before the snapshot swap; every ~100
	// trajectories a checkpoint folds the log into a saved artifact.
	opt := l2r.ServeOptions{WALDir: walDir, CheckpointEvery: 100}
	eng1, err := l2r.NewDurableEngine(clone(base), opt)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < len(live); i += 4 {
		j := min(i+4, len(live))
		eng1.IngestMatched(copyBatch(live[i:j]))
	}
	d1 := eng1.Stats().Durability
	fmt.Printf("process 1: ingested %d trips over %d swaps — %d WAL records, %d checkpoints, log %d bytes\n",
		len(live), eng1.Stats().Ingests, d1.WALRecords, d1.Checkpoints, d1.WALBytes)

	// SIGKILL. No Close, no final checkpoint; eng1 is simply gone.
	fmt.Println("process 1: killed mid-flight (no shutdown, no final checkpoint)")

	// Process 2: restart from the same WAL directory with the same
	// base artifact. Recovery loads the newest checkpoint and replays
	// the log tail on top of it.
	eng2, err := l2r.NewDurableEngine(clone(base), opt)
	if err != nil {
		log.Fatal(err)
	}
	defer eng2.Close()
	d2 := eng2.Stats().Durability
	fmt.Printf("process 2: recovered from checkpoint=%v + %d replayed WAL records (%d trajectories)\n",
		d2.RecoveredFromCheckpoint, d2.ReplayedRecords, d2.ReplayedTrajectories)

	// The proof: compare answers against (a) an uninterrupted engine
	// that ingested the same feed and never died, and (b) a cold
	// restart from the bare base artifact — what a WAL-less deployment
	// would serve after the same crash.
	uninterrupted := l2r.NewEngine(clone(base), l2r.ServeOptions{})
	for i := 0; i < len(live); i += 4 {
		j := min(i+4, len(live))
		uninterrupted.IngestMatched(copyBatch(live[i:j]))
	}
	cold := l2r.NewEngine(clone(base), l2r.ServeOptions{})

	same, lost := 0, 0
	for _, tr := range live {
		rec, _ := eng2.Route(tr.Source(), tr.Destination())
		unint, _ := uninterrupted.Route(tr.Source(), tr.Destination())
		coldRes, _ := cold.Route(tr.Source(), tr.Destination())
		if !pathsEqual(rec.Path, unint.Path) {
			log.Fatalf("recovered engine diverges from the uninterrupted run on %d->%d", tr.Source(), tr.Destination())
		}
		same++
		if !pathsEqual(coldRes.Path, unint.Path) {
			lost++ // an answer live learning changed — gone without the WAL
		}
	}
	fmt.Printf("audit: %d/%d recovered answers equal the uninterrupted run\n", same, len(live))
	fmt.Printf("audit: %d of those answers differ from the cold restart — state a WAL-less crash would have lost\n", lost)
}

// clone gives each "process" its own router over the base, as separate
// OS processes would have after loading the same artifact: a
// copy-on-write clone, which may be written to freely because nothing
// here mutates the base itself.
func clone(r *l2r.Router) *l2r.Router { return r.IngestClone() }

// copyBatch hands each engine its own trajectory structs, as decoding
// a feed twice would.
func copyBatch(ts []*traj.Trajectory) []*traj.Trajectory {
	out := make([]*traj.Trajectory, len(ts))
	for i, t := range ts {
		out[i] = &traj.Trajectory{ID: t.ID, Driver: t.Driver, Depart: t.Depart, Peak: t.Peak, Truth: t.Truth}
	}
	return out
}

func pathsEqual(a, b roadnet.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
