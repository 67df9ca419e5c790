package region

import (
	"math"
	"sort"

	"repro/internal/roadnet"
)

// A graph's trip table holds what its stored paths are windows of: the
// trajectories AddPaths ingested, and the materialized B-edge paths,
// each a trip of its own. Every PathInfo and InnerPath names its trip
// and the offset its window starts at, which is what lets the image
// write each trip once (image.go).
//
// The table is a chain of batches, newest first: one per AddPaths or
// AddBEdgePaths call, and one for a decoded graph. A batch is one array
// of vertices with the trips' end offsets in it, and is never written
// after it is made. CloneCOW shares the chain, and the batches a clone
// adds link onto its parent's, so an ingest adds O(batch) and two
// clones of one graph never see each other's trips. Trip IDs ascend
// along the chain from its oldest batch; an ID that no stored path
// names may be missing (dropUnreferencedTrips).
type tripBatch struct {
	prev  *tripBatch
	first int32              // the ID of the batch's first trip
	verts []roadnet.VertexID // the batch's trips, one after another
	ends  []int32            // ends[i]: where trip first+i ends in verts
}

// next is the ID the batch after b starts at.
func (b *tripBatch) next() int32 {
	if b == nil {
		return 0
	}
	return b.first + int32(len(b.ends))
}

// trip returns the batch's i-th trip, its capacity capped at its end.
func (b *tripBatch) trip(i int) roadnet.Path {
	start := int32(0)
	if i > 0 {
		start = b.ends[i-1]
	}
	return b.verts[start:b.ends[i]:b.ends[i]]
}

// addTrips copies paths into one new batch at the head of g's trip
// table and returns it.
func (g *Graph) addTrips(paths []roadnet.Path) *tripBatch {
	n := 0
	for _, p := range paths {
		n += len(p)
	}
	b := &tripBatch{prev: g.trips, first: g.trips.next(), verts: make([]roadnet.VertexID, 0, n), ends: make([]int32, len(paths))}
	for i, p := range paths {
		b.verts = append(b.verts, p...)
		b.ends[i] = int32(len(b.verts))
	}
	if len(paths) > 0 {
		g.trips = b
	}
	return b
}

// A BPath is a materialized path over B-edge Edge (an index into
// Graph.Edges), leaving region From.
type BPath struct {
	Edge, From int
	Path       roadnet.Path
}

// AddBEdgePaths stores materialized B-edge paths, in order, each a trip
// of its own in one new batch, deduplicated by content as Edge paths
// are. Materialization follows a rebuild's clearing of every B-edge, so
// it is where trips stop being referenced in bulk: the batches no
// stored path names any more are then dropped from the table.
func (g *Graph) AddBEdgePaths(ps []BPath) {
	paths := make([]roadnet.Path, len(ps))
	for i, bp := range ps {
		paths[i] = bp.Path
	}
	b := g.addTrips(paths)
	for i, bp := range ps {
		g.mutEdge(bp.Edge).addPath(bp.From, b.trip(i), false, b.first+int32(i), 0)
	}
	g.dropUnreferencedTrips()
}

// windows calls f with every stored path's trip, offset and length:
// the edges' forward and reverse sets in edge order, then the regions'
// inner paths.
func (g *Graph) windows(f func(trip, off int32, n int)) {
	for _, e := range g.Edges {
		for _, set := range [2][]PathInfo{e.PathsFwd, e.PathsRev} {
			for _, pi := range set {
				f(pi.trip, pi.off, len(pi.Path))
			}
		}
	}
	for _, ips := range g.inner {
		for _, ip := range ips {
			f(ip.trip, ip.off, len(ip.Path))
		}
	}
}

// tripTable is a trip chain laid out oldest batch first, so a trip ID
// finds its batch by binary search and every trip has a dense position.
type tripTable struct {
	batches []*tripBatch
	base    []int // the position of each batch's first trip
	n       int   // the number of trips
}

func tableOf(head *tripBatch) tripTable {
	k := 0
	for b := head; b != nil; b = b.prev {
		k++
	}
	t := tripTable{batches: make([]*tripBatch, k), base: make([]int, k)}
	for b := head; b != nil; b = b.prev {
		k--
		t.batches[k] = b
	}
	for k, b := range t.batches {
		t.base[k] = t.n
		t.n += len(b.ends)
	}
	return t
}

// batch returns the index of the batch holding trip.
func (t tripTable) batch(trip int32) int {
	return sort.Search(len(t.batches), func(k int) bool { return t.batches[k].first > trip }) - 1
}

// pos returns trip's position.
func (t tripTable) pos(trip int32) int {
	k := t.batch(trip)
	return t.base[k] + int(trip-t.batches[k].first)
}

// dropUnreferencedTrips unlinks the batches of g's trip table that no
// stored path names. Kept batches keep their IDs, so no stored path
// changes; batches shared with a parent graph are relinked in copies,
// never written.
func (g *Graph) dropUnreferencedTrips() {
	t := tableOf(g.trips)
	used := make([]bool, len(t.batches))
	g.windows(func(trip, _ int32, _ int) { used[t.batch(trip)] = true })
	var head *tripBatch
	dropped := false
	for k, b := range t.batches {
		switch {
		case !used[k]:
			dropped = true
		case !dropped:
			head = b
		default:
			nb := *b
			nb.prev, head = head, &nb
		}
	}
	g.trips = head
}

// tripSpans is what the image writes of a trip table: per position the
// span [lo, hi) the stored paths cover, and the index the image gives
// the trip; trips no stored path names (hi < 0) are not written.
type tripSpans struct {
	tripTable
	lo, hi, idx []int32
	written     int
}

func spansOf(g *Graph) tripSpans {
	s := tripSpans{tripTable: tableOf(g.trips)}
	all := make([]int32, 3*s.n)
	s.lo, s.hi, s.idx = all[:s.n], all[s.n:2*s.n], all[2*s.n:]
	for p := range s.lo {
		s.lo[p], s.hi[p] = math.MaxInt32, -1
	}
	g.windows(func(trip, off int32, n int) {
		p := s.pos(trip)
		s.lo[p], s.hi[p] = min(s.lo[p], off), max(s.hi[p], off+int32(n))
	})
	for p, hi := range s.hi {
		if hi >= 0 {
			s.idx[p] = int32(s.written)
			s.written++
		}
	}
	return s
}

// each calls f with the span of every trip written, in index order.
func (s tripSpans) each(f func(span roadnet.Path)) {
	for k, b := range s.batches {
		for i := range b.ends {
			if p := s.base[k] + i; s.hi[p] >= 0 {
				f(b.trip(i)[s.lo[p]:s.hi[p]])
			}
		}
	}
}
