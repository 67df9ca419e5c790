package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
)

// runSeconds is BENCHMARK.json's run_seconds: the measuring time the
// op counts below are calibrated to on the 2-core reference box.
// --seconds scales the counts in proportion and is never a deadline:
// ingest cost grows as path sets accumulate, so a timed run would
// change the op mix whenever the code got faster or slower.
const runSeconds = 14

// opKind is what one scheduled operation asks of the system.
type opKind uint8

const (
	opRoute  opKind = iota // best route for pool[arg]
	opAlt                  // k=altK ranked routes for pool[arg]
	opIngest               // ingest batches[arg]
)

// op is one scheduled operation; arg indexes the OD pool or the batch
// list according to kind.
type op struct {
	kind opKind
	arg  int32
}

// spec fixes one workload. Every number here is identical on both
// sides of any comparison: the pass count biases the per-position
// minimum, the op counts and Zipf exponent set the cache hit ratio.
type spec struct {
	name    string
	passes  int
	clients int
	// ops is the per-client, per-pass op count at runSeconds: route
	// calls, ingest batches, or ingest+read cycles.
	ops int
	// ingest makes each op an ingest batch followed by reads GETs.
	ingest bool
	reads  int
	// zipfV, when positive, draws ODs from the pool with probability
	// proportional to (zipfV+rank)^-zipfS instead of uniformly.
	zipfV float64
	// tailOps is how many ingests of an ingest workload follow the
	// one that checkpoints: what the WAL holds afterwards and the
	// restart replays. These and the checkpointing ingest arrive in
	// list order rather than in the seed's, so on every seed the same
	// batch pays the checkpoint and the same records are replayed.
	tailOps int
	// restarts is how many times each pass times the cold start on
	// what it left behind; the run keeps the fastest of them all.
	restarts int
	// cacheOff serves with CacheSize=-1: no cache, no coalescing.
	cacheOff bool
	// ckptEvery is serve.Options.CheckpointEvery in trajectories;
	// negative disables checkpoints.
	ckptEvery int
	// handler drives Engine.Handler().ServeHTTP instead of the Go API.
	handler bool
	// tail is the op_tail_us percentile: the highest of the fixed
	// ladder with at least ten samples beyond it where the op count
	// allows one (ingest_stream's 16 ops do not; see README).
	tail float64
}

const (
	zipfS = 1.5
	// zipfHot gives the first rank 38% of the draws: the hit path's
	// cost on the Go API does not depend on which OD is hot.
	zipfHot = 1
	// zipfFlat gives it 3%. The handler's cost is proportional to the
	// reply's path length, so under zipfHot whichever OD the seed ranks
	// first would set the median.
	zipfFlat  = 16
	altK      = 4
	altEvery  = 10 // every altEvery-th read of mixed_handler asks for alternatives
	poolSize  = 50000
	auditODs  = 220
	batchSize = 2 // held-out trajectories per ingest batch
)

var specs = []spec{
	{name: "route_cold", passes: 20, clients: 1, ops: 16000, restarts: 3, cacheOff: true, ckptEvery: -1, tail: 99.9},
	{name: "route_zipf", passes: 15, clients: 2, ops: 240000, restarts: 4, zipfV: zipfHot, ckptEvery: -1, tail: 99.9},
	{name: "ingest_stream", passes: 10, clients: 1, ops: 16, restarts: 3, ingest: true, tailOps: 2, ckptEvery: 14 * batchSize, tail: 80},
	{name: "mixed_handler", passes: 10, clients: 1, ops: 5, restarts: 5, ingest: true, reads: 2000, zipfV: zipfFlat, tailOps: 2, ckptEvery: 3 * batchSize, handler: true, tail: 99},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled returns the spec with its read counts sized for a run of the
// given length. The ingest batches stay as they are: their number
// places the checkpoint and the WAL tail the restart replays.
func (s spec) scaled(seconds int) spec {
	if s.ingest {
		s.reads = s.reads * seconds / runSeconds
	} else {
		s.ops = max(1, s.ops*seconds/runSeconds)
	}
	return s
}

// subSeed derives the independent streams (OD pool, batch order, one
// per client) from the one --seed.
func subSeed(seed int64, stream int) int64 { return seed*1000003 + int64(stream) }

// schedule builds every client's fixed op list from the seed alone;
// route args index an OD pool of poolLen entries.
func (s spec) schedule(seed int64, poolLen int) [][]op {
	out := make([][]op, s.clients)
	for c := range out {
		rng := rand.New(rand.NewSource(subSeed(seed, 2+c)))
		draw := func() int32 { return int32(rng.Intn(poolLen)) }
		if s.zipfV > 0 {
			z := rand.NewZipf(rng, zipfS, s.zipfV, uint64(poolLen-1))
			draw = func() int32 { return int32(z.Uint64()) }
		}
		if !s.ingest {
			ops := make([]op, s.ops)
			for i := range ops {
				ops[i] = op{kind: opRoute, arg: draw()}
			}
			out[c] = ops
		} else {
			// The batch set is fixed, the first s.ops of the list:
			// per-trip ingest cost varies 30x, so a seeded subset
			// would measure the draw, not the code. The seed permutes
			// the order the batches arrive in, up to the one that
			// checkpoints.
			head := max(0, s.ops-s.tailOps-1)
			order := rng.Perm(head)
			for b := head; b < s.ops; b++ {
				order = append(order, b)
			}
			ops := make([]op, 0, s.ops*(1+s.reads))
			for _, b := range order {
				ops = append(ops, op{kind: opIngest, arg: int32(b)})
				for i := 1; i <= s.reads; i++ {
					k := opRoute
					if i%altEvery == 0 {
						k = opAlt
					}
					ops = append(ops, op{kind: k, arg: draw()})
				}
			}
			out[c] = ops
		}
	}
	return out
}

// scheduleHash fingerprints a schedule: same seed, same hash.
func scheduleHash(sched [][]op) uint64 {
	h := fnv.New64a()
	var b [5]byte
	for c, ops := range sched {
		b[0] = byte(c)
		h.Write(b[:1])
		for _, o := range ops {
			b[0] = byte(o.kind)
			binary.LittleEndian.PutUint32(b[1:], uint32(o.arg))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// smoke shrinks the workload to a few hundred milliseconds on the
// bench world, keeping one checkpoint and a WAL tail in the run.
func (s spec) smoke() spec {
	s.passes, s.restarts = 1, 1
	if s.ingest {
		s.ops, s.ckptEvery, s.tailOps = 5, 3*batchSize, 2
		s.reads = min(s.reads, 150)
	} else {
		s.ops = min(s.ops, 3000)
	}
	return s
}
