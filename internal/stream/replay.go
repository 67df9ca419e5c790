package stream

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"repro/internal/traj"
)

// PointsFrom flattens trajectories (typically traj.Simulator output)
// into one time-ordered GPS point stream. Each trajectory is its own
// vehicle ("t<ID>"), which preserves trip boundaries exactly.
func PointsFrom(ts []*traj.Trajectory) []Point {
	var out []Point
	for _, t := range ts {
		v := "t" + strconv.Itoa(t.ID)
		for _, r := range t.Records {
			out = append(out, Point{Vehicle: v, T: r.T, X: r.P.X, Y: r.P.Y})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// ReadNDJSON parses a recorded point stream — the POST /stream wire
// format, one JSON object per line.
func ReadNDJSON(r io.Reader) ([]Point, error) {
	dec := json.NewDecoder(r)
	var out []Point
	for i := 1; ; i++ {
		var p Point
		err := dec.Decode(&p)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("stream: record %d: %w", i, err)
		}
		if p.Vehicle == "" {
			return nil, fmt.Errorf("stream: record %d: missing vehicle", i)
		}
		out = append(out, p)
	}
}

// Replay feeds a time-ordered point stream into ing, pacing
// inter-arrival gaps by the rate multiplier (60 = sixty times faster
// than the feed's clock; <= 0 = no pacing), then closes all sessions
// and flushes. It returns the number of points delivered; a cancelled
// ctx stops early without closing sessions.
func Replay(ctx context.Context, ing *Ingestor, pts []Point, rate float64) int {
	n := 0
	var lastT float64
	for i, p := range pts {
		if ctx.Err() != nil {
			return n
		}
		if i > 0 && rate > 0 {
			if dt := p.T - lastT; dt > 0 {
				select {
				case <-ctx.Done():
					return n
				case <-time.After(time.Duration(dt / rate * float64(time.Second))):
				}
			}
		}
		lastT = p.T
		ing.Push(p)
		n++
	}
	ing.CloseAll()
	ing.Flush()
	return n
}
