package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pref"
)

// metrics aggregates serving measurements, overall and per query
// category (the paper's InRegion / InOutRegion / OutRegion breakdown).
// The histograms are obs.Histogram — lock-free quarter-log2 buckets
// that both Stats quantiles and the /metrics Prometheus exposition
// read from, so the two surfaces never disagree.
//
// They are kept in latencyStripes copies that readers merge. A cache
// hit is a few hundred nanoseconds; on one set of counters written by
// every client, each hit waits for the counters' cache lines to come
// over from whichever core counted last — with two clients a third of
// a hit's cost, and one that comes and goes with where the host puts
// the cores. tokens is a sync.Pool, whose per-P slots hand a goroutine
// the stripe its P used last, so in steady state each core counts on
// lines nobody else writes.
type metrics struct {
	stripes [latencyStripes]latencyStripe
	next    atomic.Uint32 // round-robin stripe for a P that holds none
	tokens  sync.Pool     // of *latencyStripe, pointing into stripes
}

const (
	// latencyStripes bounds how many cores count without sharing;
	// beyond it stripes are shared and merely contended less.
	latencyStripes = 8
	// numCategories is the paper's three query categories.
	numCategories = 3
)

type latencyStripe struct {
	perCat [numCategories]obs.Histogram
	_      [64]byte // the next stripe starts on a line of its own
}

// observe counts one answered query under its category. The overall
// distribution is the categories' sum and is merged when read, not
// counted a second time here.
func (m *metrics) observe(cat core.Category, d time.Duration) {
	if int(cat) >= numCategories {
		cat = core.OutRegion // as Category.String reads it
	}
	s, _ := m.tokens.Get().(*latencyStripe)
	if s == nil {
		s = &m.stripes[m.next.Add(1)%latencyStripes]
	}
	s.perCat[cat].Observe(d)
	m.tokens.Put(s)
}

// category returns the latency distribution of one category's queries,
// merged over the stripes into a histogram the caller owns.
func (m *metrics) category(cat int) *obs.Histogram {
	h := &obs.Histogram{}
	for i := range m.stripes {
		h.Merge(&m.stripes[i].perCat[cat])
	}
	return h
}

// latency merges the stripes into histograms the caller owns: each
// category's distribution, and every query's as their sum.
func (m *metrics) latency() (all *obs.Histogram, perCat [numCategories]*obs.Histogram) {
	all = &obs.Histogram{}
	for c := range perCat {
		perCat[c] = m.category(c)
		all.Merge(perCat[c])
	}
	return all, perCat
}

// LatencyStats summarizes one latency distribution.
type LatencyStats struct {
	Queries uint64        `json:"queries"`
	Mean    time.Duration `json:"mean_ns"`
	P50     time.Duration `json:"p50_ns"`
	P95     time.Duration `json:"p95_ns"`
	P99     time.Duration `json:"p99_ns"`
	P999    time.Duration `json:"p999_ns"`
}

func latencyStats(h *obs.Histogram) LatencyStats {
	return LatencyStats{
		Queries: h.Count(),
		Mean:    h.Mean(),
		P50:     h.Quantile(0.50),
		P95:     h.Quantile(0.95),
		P99:     h.Quantile(0.99),
		P999:    h.Quantile(0.999),
	}
}

// StreamStats describes the streaming GPS ingestion pipeline feeding
// an engine (see internal/stream): sessionization health, the
// closed-trajectory batch queue, and flush amortization. Absent from
// Stats when no pipeline is attached.
type StreamStats struct {
	// ActiveSessions is the number of vehicles with an open session.
	ActiveSessions int `json:"active_sessions"`
	// PointsIn counts GPS points accepted by Push; the three drop
	// counters break out points discarded before sessionization:
	// arrivals older than the reorder window, exact duplicates, and
	// teleport-distance outliers.
	PointsIn        uint64 `json:"points_in"`
	PointsLate      uint64 `json:"points_late"`
	PointsDuplicate uint64 `json:"points_duplicate"`
	PointsOutlier   uint64 `json:"points_outlier"`
	// SegmentsClosed counts trajectory segments ended by gap, dwell,
	// teleport or an explicit close; SegmentsDropped the subset too
	// short to ingest (under 2 records or fewer than 2 matched
	// vertices).
	SegmentsClosed  uint64 `json:"segments_closed"`
	SegmentsDropped uint64 `json:"segments_dropped"`
	// QueueDepth/QueueCapacity describe the closed-trajectory batch
	// queue; QueueDrops counts trajectories rejected because the queue
	// was full (ingest backpressure) or because a hot swap replaced
	// the engine's road network out from under the pipeline.
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
	QueueDrops    uint64 `json:"queue_drops"`
	// Flushes counts Engine.Ingest swaps the batcher ran;
	// FlushedTrajectories the trajectories they carried — the ratio is
	// the snapshot-swap amortization. LastFlushBatch and
	// LastFlushLatency describe the most recent flush.
	Flushes             uint64        `json:"flushes"`
	FlushedTrajectories uint64        `json:"flushed_trajectories"`
	LastFlushBatch      int           `json:"last_flush_batch"`
	LastFlushLatency    time.Duration `json:"last_flush_latency_ns"`
}

// Stats is a point-in-time snapshot of serving health.
type Stats struct {
	// Uptime is the time since the engine was created.
	Uptime time.Duration `json:"uptime_ns"`
	// Queries counts Route/RouteK requests answered.
	Queries uint64 `json:"queries"`
	// QPS is Queries averaged over Uptime.
	QPS float64 `json:"qps"`

	// CacheHits/CacheMisses/CacheHitRate/CacheEntries describe the
	// route cache; all zero when caching is disabled.
	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	CacheEntries int     `json:"cache_entries"`

	// RouteComputations counts route searches actually run — queries
	// not absorbed by the cache or by coalescing. CoalescedQueries
	// counts queries that shared a concurrent duplicate's in-flight
	// computation instead of running their own.
	RouteComputations uint64 `json:"route_computations"`
	CoalescedQueries  uint64 `json:"coalesced_queries"`

	// SnapshotGeneration is the current router generation (starts at 1,
	// +1 per Ingest/Publish).
	SnapshotGeneration uint64 `json:"snapshot_generation"`
	// Ingests counts copy-on-write ingest swaps; IngestedTrajectories
	// the trajectories they carried.
	Ingests              uint64 `json:"ingests"`
	IngestedTrajectories uint64 `json:"ingested_trajectories"`
	// LearnSearches accounts for the shortest-path searches the ingests'
	// preference relearns called for (21 per sampled path with the
	// default candidates), by what the learner did with each.
	LearnSearches pref.SearchStats `json:"learn_searches"`
	// IngestLag is the wall time the last ingest took from batch
	// arrival to snapshot publication — how far behind live data the
	// served router runs.
	IngestLag time.Duration `json:"ingest_lag_ns"`
	// CustomizeLag is the contraction-hierarchy re-customization time
	// within the last ingest: how long PrepareMetrics took to refresh
	// metric weights on the shared CH topology (zero when no new
	// metrics were needed).
	CustomizeLag time.Duration `json:"customize_ns"`
	// SwapLag is the swap overhead of the last ingest — everything the
	// write path did beyond applying the batch itself: the copy-on-write
	// clone, CH re-customization, and snapshot publication. This is the
	// cost that the COW clone + shared-topology design collapses
	// relative to a deep clone per batch.
	SwapLag time.Duration `json:"swap_ns"`
	// SinceLastSwap is the time since the last snapshot publication.
	SinceLastSwap time.Duration `json:"since_last_swap_ns"`

	// LastStalenessRatio is the out-of-region share of the last ingest
	// batch's path vertices (region.UpdateStats.StalenessRatio);
	// StalenessRatio the same share cumulated over every vertex ingested
	// since start, with OutOfRegionVertices/IngestedVertices its
	// numerator and denominator. High values mean the fixed region
	// partition no longer covers the traffic — the signal the
	// maintenance triggers and the rebuild-recommended flag read.
	LastStalenessRatio  float64 `json:"last_staleness_ratio"`
	StalenessRatio      float64 `json:"staleness_ratio"`
	OutOfRegionVertices uint64  `json:"out_of_region_vertices"`
	IngestedVertices    uint64  `json:"ingested_vertices"`

	// Latency is the overall latency distribution; PerCategory breaks
	// it down by the paper's query categories.
	Latency     LatencyStats            `json:"latency"`
	PerCategory map[string]LatencyStats `json:"per_category"`

	// Stream reports the attached streaming ingestion pipeline; nil
	// when none is attached.
	Stream *StreamStats `json:"stream,omitempty"`

	// Quality reports the attached model-quality observer (shadow
	// scoring accuracy, preference drift, staleness gauges); nil when
	// none is attached.
	Quality *QualityStats `json:"quality,omitempty"`

	// Maintenance reports the attached background maintainer (evidence
	// accumulation, rebuild triggers and cycle outcomes); nil when none
	// is attached.
	Maintenance *MaintStats `json:"maintenance,omitempty"`

	// Durability reports the write-ahead-log attachment (appends,
	// checkpoints, recovery facts); nil on non-durable engines.
	Durability *DurabilityStats `json:"durability,omitempty"`
}

// reading is one look at an engine, taken from one snapshot load: the
// Stats, the latency histograms they summarize, and what /metrics
// writes beside them. Stats, /metrics, the fleet's aggregates and
// /tenants each take one per engine, so the engine's own figures come
// from one snapshot and no histogram is merged twice (attachments'
// reports read on their own).
type reading struct {
	st       Stats
	all      *obs.Histogram // every query; the categories' sum
	perCat   [numCategories]*obs.Histogram
	router   *core.Router // the snapshot's
	chHeight int          // its contraction order's climb (Router.CHClimb)
	chArcs   float64
	walSeq   uint64 // the next WAL sequence; 0 on a non-durable engine
}

// Stats gathers a snapshot of the engine's counters. The generation and
// the write path's books come from one snapshot load, so they always
// agree: Ingests is the ingest swaps that generation's lineage made.
func (e *Engine) Stats() Stats { return e.read().st }

func (e *Engine) read() reading {
	now := time.Now()
	snap := e.snap.Load()
	bk := &snap.books
	rd := reading{router: snap.base}
	rd.all, rd.perCat = e.met.latency()
	rd.chHeight, rd.chArcs = snap.base.CHClimb()
	rd.st = Stats{
		Uptime:               now.Sub(e.start),
		Queries:              rd.all.Count(),
		RouteComputations:    e.computes.Load(),
		CoalescedQueries:     e.coalesced.Load(),
		SnapshotGeneration:   snap.gen,
		Ingests:              bk.ingests,
		IngestedTrajectories: bk.ingestedTrajs,
		LearnSearches:        bk.learn,
		IngestLag:            bk.ingestLag,
		CustomizeLag:         bk.customizeLag,
		SwapLag:              bk.swapLag,
		SinceLastSwap:        now.Sub(bk.lastSwap),
		LastStalenessRatio:   bk.lastStaleness,
		OutOfRegionVertices:  bk.oorVertices,
		IngestedVertices:     bk.vertices,
		Latency:              latencyStats(rd.all),
		PerCategory:          make(map[string]LatencyStats, numCategories),
	}
	st := &rd.st
	if st.Uptime > 0 {
		st.QPS = float64(st.Queries) / st.Uptime.Seconds()
	}
	if st.IngestedVertices > 0 {
		st.StalenessRatio = float64(st.OutOfRegionVertices) / float64(st.IngestedVertices)
	}
	if e.cache != nil {
		st.CacheHits, st.CacheMisses = e.cache.counts()
		if total := st.CacheHits + st.CacheMisses; total > 0 {
			st.CacheHitRate = float64(st.CacheHits) / float64(total)
		}
		st.CacheEntries = e.cache.len()
	}
	for c, h := range rd.perCat {
		if h.Count() > 0 {
			st.PerCategory[core.Category(c).String()] = latencyStats(h)
		}
	}
	e.reportAttached(st)
	if e.dur != nil {
		ds := e.dur.stats()
		st.Durability = &ds
		rd.walSeq = e.dur.walSeq.Load()
	}
	return rd
}
