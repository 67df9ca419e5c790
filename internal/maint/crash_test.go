package maint

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/serve"
	"repro/internal/traj"
	"repro/internal/wal"
)

// maintCrashSeed and maintCrashTrips parameterize the SIGKILL crash
// test; the parent and its child process must agree on them.
const (
	maintCrashSeed  = 91
	maintCrashTrips = 320
)

// maintCrashFeed derives the deterministic live feed both processes
// use: the bulk the child ingests before its first rebuild, plus the
// extras it feeds between rebuild cycles so cycle 2 folds in enough
// fresh evidence to actually move the model. Trajectories come from
// the seeded simulator only, so both processes see byte-identical
// batches.
func maintCrashFeed(tb testing.TB) (bulk [][]*traj.Trajectory, extras [][]*traj.Trajectory) {
	tb.Helper()
	road := roadnet.Generate(roadnet.Tiny(maintCrashSeed))
	ts := traj.NewSimulator(road, traj.D2Like(maintCrashSeed, maintCrashTrips)).Run()
	cut := len(ts) * 6 / 10
	batches := batchCopies(ts[cut:], 2)
	if len(batches) < 24 {
		tb.Fatalf("feed too small: %d batches", len(batches))
	}
	half := len(batches) / 2
	return batches[:half], batches[half:]
}

func maintCrashOptions(dir string) serve.Options {
	return serve.Options{WALDir: dir, CheckpointEvery: 24, WALSync: wal.SyncAlways, CacheSize: -1}
}

// maintCrashBase builds the child's offline base; the child saves it to
// base.l2r so the parent recovers the *same* base without relying on
// cross-process build determinism.
func maintCrashBase(tb testing.TB) *core.Router {
	tb.Helper()
	road := roadnet.Generate(roadnet.Tiny(maintCrashSeed))
	ts := traj.NewSimulator(road, traj.D2Like(maintCrashSeed, maintCrashTrips)).Run()
	base, err := core.Build(road, ts[:len(ts)*6/10], coreOpt)
	if err != nil {
		tb.Fatalf("Build: %v", err)
	}
	return base
}

// TestMaintCrashEquivalence is the crash-equivalence acceptance test:
// the parent SIGKILLs a child process somewhere inside a maintenance
// clone-rebuild-publish-checkpoint cycle, then recovers from the
// child's WAL directory and asserts
//
//  1. the recovered engine serves either the pre-rebuild or the
//     post-rebuild snapshot — on every query, consistently, never a
//     hybrid of the two; and
//  2. re-running maintenance on the recovered engine converges to the
//     post-rebuild model regardless of which side recovery landed on
//     (Retransduce is idempotent over the same evidence).
//
// The kill is aimed at the child's *second* rebuild cycle, so the WAL
// directory holds a completed rebuild checkpoint (cycle 1) plus a
// torn-or-complete cycle 2 — the hardest recovery case the maintenance
// pipeline creates.
func TestMaintCrashEquivalence(t *testing.T) {
	if dir := os.Getenv("MAINT_CRASH_DIR"); dir != "" {
		maintCrashChild(t, dir)
		return
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestMaintCrashEquivalence$", "-test.v")
	cmd.Env = append(os.Environ(), "MAINT_CRASH_DIR="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Drive to the kill point: everything up to and including the
	// cycle-2 evidence batch is acknowledged durable, cycle 2's
	// clone-rebuild-publish is (at most) in flight.
	sc := bufio.NewScanner(stdout)
	applied, rebuilt := 0, 0
	killed := false
	var cycle1Start time.Time
	var cycle1 time.Duration
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "applied "):
			applied++
		case line == "rebuild-start 1":
			cycle1Start = time.Now()
		case strings.HasPrefix(line, "rebuilt "):
			rebuilt++
			if line == "rebuilt 1" {
				cycle1 = time.Since(cycle1Start)
			}
		case line == "rebuild-start 2":
			// Aim the kill at a random point across the whole cycle —
			// clone, Retransduce, publish, checkpoint — using cycle 1's
			// wall time as the yardstick. Repeated runs sample every
			// window, including post-checkpoint.
			time.Sleep(time.Duration(rng.Int63n(int64(cycle1*5/4) + 1)))
			if err := cmd.Process.Kill(); err != nil {
				t.Fatalf("SIGKILL: %v", err)
			}
			killed = true
		}
		if killed {
			break
		}
	}
	if !killed {
		t.Fatalf("child exited before the second rebuild (applied %d, rebuilt %d)", applied, rebuilt)
	}
	for sc.Scan() { // drain anything that slipped out before the kill landed
		line := sc.Text()
		if strings.HasPrefix(line, "rebuilt ") {
			rebuilt++
		}
	}
	cmd.Wait() // expected "signal: killed"
	if rebuilt < 1 {
		t.Fatalf("child completed %d rebuilds before the kill, want >= 1", rebuilt)
	}
	t.Logf("child killed inside rebuild cycle 2 (applied %d batches, completed %d rebuilds)", applied, rebuilt)

	// Recover from what the child left behind.
	baseBytes, err := os.ReadFile(filepath.Join(dir, "base.l2r"))
	if err != nil {
		t.Fatalf("child's base artifact: %v", err)
	}
	load := func() *core.Router {
		r, err := core.Load(bytes.NewReader(baseBytes))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	recovered, err := serve.NewDurableEngine(load(), maintCrashOptions(dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer recovered.Close()

	// Replay the child's exact history in-process to produce both legal
	// outcomes: "pre" is the state right before rebuild cycle 2 (bulk +
	// rebuild 1 + the cycle-2 evidence batch), "post" is after cycle 2.
	bulk, extras := maintCrashFeed(t)
	ref := serve.NewEngine(load(), serve.Options{CacheSize: -1})
	rm := Attach(ref, Config{CheckEvery: time.Hour})
	defer rm.Close()
	for _, b := range bulk {
		ref.IngestMatched(b)
	}
	if _, err := rm.TriggerNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, b := range extras[:len(extras)-1] {
		ref.IngestMatched(b)
	}

	var live []*traj.Trajectory
	for _, b := range bulk {
		live = append(live, b...)
	}
	for _, b := range extras {
		live = append(live, b...)
	}
	ods := queryODs(roadnet.Generate(roadnet.Tiny(maintCrashSeed)), live, 60)

	pre := answersOf(ref, ods)
	if _, err := rm.TriggerNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	post := answersOf(ref, ods)
	if sameAnswers(pre, post) {
		t.Log("note: pre- and post-rebuild snapshots answer this OD set identically; the hybrid check is one-sided this run")
	}

	got := answersOf(recovered, ods)
	matchesPre, matchesPost := sameAnswers(got, pre), sameAnswers(got, post)
	if !matchesPre && !matchesPost {
		t.Fatal("recovered engine matches neither the pre-rebuild nor the post-rebuild snapshot — hybrid state")
	}
	t.Logf("recovery landed on the %s snapshot", map[bool]string{true: "post-rebuild", false: "pre-rebuild"}[matchesPost])

	// Crash convergence: re-running maintenance on the recovered engine
	// must land on the post-rebuild model from either starting point.
	m2 := Attach(recovered, Config{CheckEvery: time.Hour})
	defer m2.Close()
	if _, err := m2.TriggerNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !sameAnswers(answersOf(recovered, ods), post) {
		t.Fatal("re-running maintenance after recovery did not converge to the post-rebuild model")
	}
}

// maintCrashChild is the process the parent kills: serve a durable
// engine with an attached (manual-trigger) maintainer, ingest the bulk
// feed, complete one full rebuild cycle, then announce and start a
// second one — the parent's kill lands inside it, or after it while
// the child waits for the kill.
func maintCrashChild(t *testing.T, dir string) {
	base := maintCrashBase(t)
	f, err := os.Create(filepath.Join(dir, "base.l2r"))
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	e, err := serve.NewDurableEngine(base, maintCrashOptions(dir))
	if err != nil {
		t.Fatalf("child NewDurableEngine: %v", err)
	}
	m := Attach(e, Config{CheckEvery: time.Hour})
	defer m.Close()

	bulk, extras := maintCrashFeed(t)
	ack := func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
		os.Stdout.Sync()
		time.Sleep(2 * time.Millisecond)
	}
	for i, b := range bulk {
		e.IngestMatched(b)
		// SyncAlways: the WAL append is on disk before the swap
		// returns, so everything acknowledged here survives the kill.
		ack("applied %d", i+1)
	}
	ack("rebuild-start 1")
	if _, err := m.TriggerNow(context.Background()); err != nil {
		t.Fatalf("child rebuild 1: %v", err)
	}
	ack("rebuilt 1")
	for i, b := range extras[:len(extras)-1] {
		e.IngestMatched(b)
		ack("applied %d", len(bulk)+i+1)
	}
	// No post-ack sleep here: enter the cycle immediately so the
	// parent's kill lands inside clone/rebuild/publish/checkpoint, not
	// in an idle gap before it.
	fmt.Println("rebuild-start 2")
	os.Stdout.Sync()
	if _, err := m.TriggerNow(context.Background()); err != nil {
		t.Fatalf("child rebuild 2: %v", err)
	}
	ack("rebuilt 2")
	// Park until the kill, which lands within 1.25 × cycle 1 of
	// "rebuild-start 2": ingesting anything more would durably reach a
	// third state, post-rebuild plus that batch, which the parent does
	// not accept. Pre and post are every state this child can reach.
	time.Sleep(time.Minute)
	t.Fatal("child was not killed within a minute of its second rebuild")
}
