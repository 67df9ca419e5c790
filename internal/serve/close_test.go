package serve_test

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/traj"
)

// closeLog is an attachment that appends "<name>:offer" and
// "<name>:close" to a shared log. The engine offers under its write
// lock, and in this test every offer happens before Close returns on
// the goroutine that called it, so the appends never race.
type closeLog struct {
	name   string
	log    *[]string
	closed int
}

func (c *closeLog) Endpoint() (string, http.Handler) { return "/" + c.name, http.NotFoundHandler() }
func (c *closeLog) OfferTrajectories([]*traj.Trajectory) {
	*c.log = append(*c.log, c.name+":offer")
}
func (c *closeLog) Report(*serve.Stats) {}
func (c *closeLog) Close() {
	c.closed++
	*c.log = append(*c.log, c.name+":close")
}

// TestEngineCloseStopsAttachments: Engine.Close stops each attachment
// once, last attached first, before it releases the write-ahead log —
// so a stream pipeline's final flush, which reaches the attachments
// registered before it, is journaled — and a second Close returns nil.
// Close does not checkpoint: the next start replays that flush.
// Shutdown stops the attachments the same way and checkpoints after
// them, so the start after it replays nothing.
func TestEngineCloseStopsAttachments(t *testing.T) {
	road := roadnet.Generate(roadnet.Tiny(5))
	ts := traj.NewSimulator(road, traj.D2Like(5, 300)).Run()
	cut := len(ts) * 6 / 10
	r, err := core.Build(road, ts[:cut], core.Options{SkipMapMatching: true})
	if err != nil {
		t.Fatal(err)
	}
	opt := serve.Options{WALDir: t.TempDir(), CheckpointEvery: -1}
	// openTrips attaches a pipeline holding live trips that only its
	// final flush ingests.
	openTrips := func(e *serve.Engine, trips []*traj.Trajectory) *stream.Ingestor {
		ing := stream.Attach(e, stream.Config{FlushAge: time.Hour})
		ing.PushAll(stream.PointsFrom(trips))
		return ing
	}

	e, err := serve.NewDurableEngine(r.IngestClone(), opt)
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	first := &closeLog{name: "first", log: &log}
	e.Attach(first)
	ing := openTrips(e, ts[cut:cut+8])
	last := &closeLog{name: "last", log: &log}
	e.Attach(last)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(log, " "), "last:close first:offer last:offer first:close"; got != want {
		t.Fatalf("Close ran\n got %s\nwant %s", got, want)
	}
	ss, d := ing.StreamStats(), e.Stats().Durability
	if ss.Flushes != 1 || ss.FlushedTrajectories == 0 || d.WALRecords != 1 || d.WALAppendFailures != 0 {
		t.Fatalf("final flush: %d flushes of %d trajectories, %d records journaled, %d refused; want one flush journaled",
			ss.Flushes, ss.FlushedTrajectories, d.WALRecords, d.WALAppendFailures)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := e.Shutdown(); err != nil {
		t.Fatalf("Shutdown after Close: %v", err)
	}
	if first.closed != 1 || last.closed != 1 {
		t.Fatalf("attachments closed %d and %d times, want once each", first.closed, last.closed)
	}

	e, err = serve.NewDurableEngine(r.IngestClone(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if d := e.Stats().Durability; d.RecoveredFromCheckpoint || d.ReplayedRecords != 1 {
		t.Fatalf("restart after Close: checkpoint %v, %d records replayed; want no checkpoint and the flush replayed",
			d.RecoveredFromCheckpoint, d.ReplayedRecords)
	}
	openTrips(e, ts[cut+8:cut+16])
	if err := e.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if d := e.Stats().Durability; d.WALRecords != 1 || d.Checkpoints != 1 {
		t.Fatalf("Shutdown: %d records journaled, %d checkpoints; want the final flush, then one checkpoint", d.WALRecords, d.Checkpoints)
	}

	e, err = serve.NewDurableEngine(r.IngestClone(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if d := e.Stats().Durability; !d.RecoveredFromCheckpoint || d.ReplayedRecords != 0 {
		t.Fatalf("restart after Shutdown: checkpoint %v, %d records replayed; want the checkpoint and nothing replayed",
			d.RecoveredFromCheckpoint, d.ReplayedRecords)
	}
}
