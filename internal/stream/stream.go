package stream

import (
	"time"

	"repro/internal/geo"
	"repro/internal/mapmatch"
	"repro/internal/traj"
)

// Point is one raw GPS observation from one vehicle's feed — the wire
// unit of the pipeline (NDJSON records on POST /stream, replay
// sources, Sessionizer.Push). T is in seconds on the feed's clock;
// X/Y are the planar coordinates the road network uses.
type Point struct {
	Vehicle string  `json:"vehicle"`
	T       float64 `json:"t"`
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	// Close marks a control record: the vehicle's open session is
	// drained and closed (T/X/Y are ignored). Feeds that know a trip
	// ended — engine-off events, depot returns — send one instead of
	// waiting out the gap timeout.
	Close bool `json:"close,omitempty"`
}

func (p Point) pos() geo.Point { return geo.Pt(p.X, p.Y) }

const (
	// dwellS and dwellRadiusM close a segment when a vehicle stays
	// within dwellRadiusM meters of one spot for more than dwellS
	// seconds — the trip ended even though the receiver keeps
	// reporting.
	dwellS       = 240
	dwellRadiusM = 40
	// maxSpeedMS and teleportSlackM flag a point as a teleport-distance
	// outlier when reaching it from the last accepted point would need
	// to cover more than maxSpeedMS·dt + teleportSlackM meters (the
	// slack keeps position noise on closely spaced fixes from reading
	// as impossible speed). One inconsistent point is dropped as noise;
	// two consecutive points consistent with each other but not with
	// the session are a relocation and split the segment.
	maxSpeedMS     = 70
	teleportSlackM = 50
	// reorderWindow is how many points per vehicle are buffered to
	// absorb out-of-order arrivals. Points that arrive after their slot
	// left the window are dropped and counted.
	reorderWindow = 8
	// minPoints drops closed segments with fewer records; a single GPS
	// fix is not evidence of traversal.
	minPoints = 2
	// indexCellM is the cell size, in meters, of the spatial index the
	// Ingestor builds over the engine's road network. Map matching runs
	// on GOMAXPROCS shards: sessions are hashed onto that many matchers.
	indexCellM = 250
	// queueCap bounds the Ingestor's closed-trajectory queue;
	// trajectories closed while it is full are dropped and counted.
	queueCap = 1024
)

// Config tunes the pipeline. The zero value is usable; zero fields
// take the documented defaults. The dwell and teleport thresholds,
// reorder window, minimum segment, index cell and queue bound are the
// constants above: no caller ever set them, and an option nobody sets
// is a branch nobody runs.
type Config struct {
	// GapS closes a segment when consecutive points of one vehicle are
	// more than this many seconds apart (default 300).
	GapS float64

	// Match configures the windowed online map matcher: its GPS noise
	// (SigmaM); the matcher's other settings are constants.
	Match mapmatch.Config

	// MaxBatch flushes the closed-trajectory queue into the engine
	// once this many accumulate (default 32); FlushAge flushes sooner
	// when the oldest queued trajectory has waited this long (default
	// 2s).
	MaxBatch int
	FlushAge time.Duration

	// OnTrajectory, when set, observes every closed, matched
	// trajectory before it is queued for ingestion (logging, tests).
	// It runs on the pushing goroutine; keep it cheap.
	OnTrajectory func(vehicle string, t *traj.Trajectory)
}

func (c Config) withDefaults() Config {
	if c.GapS == 0 {
		c.GapS = 300
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 32
	}
	if c.FlushAge == 0 {
		c.FlushAge = 2 * time.Second
	}
	return c
}
