package serve

import (
	"context"
	"fmt"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Fleet is a multi-tenant registry of serving engines: one named
// Engine per world (in the paper's terms, one region graph per city's
// trajectory set), behind a single HTTP front-end. Each tenant keeps
// its own route cache (which coalesces) and metrics; the fleet
// aggregates them for operator-level stats.
//
// The fleet owns each tenant's engine: a tenant leaving the registry
// (Remove, Close) has its engine closed, once, and the engine stops
// whatever its Attach functions put on it.
//
// All methods are safe for concurrent use. Lookups on the query path
// take a read lock only; tenant registration, removal and artifact
// publication serialize on a write lock but never block in-flight
// queries — a hot swap goes through the tenant engine's snapshot
// machinery (Engine.Publish), so queries racing the swap finish on the
// generation they loaded — and a new tenant's engine is constructed
// (checkpoint decode, CH contraction, WAL replay) before the lock is
// taken, so a hot-load never stalls the other tenants.
type Fleet struct {
	opt   Options // engine options for tenants the fleet creates
	start time.Time

	mu      sync.RWMutex
	tenants map[string]*tenant
	attach  []func(name string, e *Engine) // Attach's functions, in registration order
}

// tenant pairs an engine with its HTTP handler — the engine's bare API
// (the fleet's middleware stamps and traces the request) behind the
// tenant's /t/{name} prefix strip — built once so the per-request path
// is a map lookup plus ServeHTTP.
type tenant struct {
	eng     *Engine
	handler http.Handler
}

func newTenant(name string, e *Engine) *tenant {
	return &tenant{eng: e, handler: http.StripPrefix("/t/"+name, e.api())}
}

// NewFleet creates an empty fleet. opt configures every engine the
// fleet creates for its tenants (cache sizing, ingest tuning, path
// backend).
func NewFleet(opt Options) *Fleet {
	return &Fleet{opt: opt, start: time.Now(), tenants: make(map[string]*tenant)}
}

// validTenantName rejects names that cannot be addressed as one URL
// path segment, or that would escape the fleet's per-tenant WAL root
// as a relative path component.
func validTenantName(name string) error {
	if name == "" {
		return fmt.Errorf("serve: empty tenant name")
	}
	if name == "." || name == ".." {
		return fmt.Errorf("serve: tenant name %q is a relative path component", name)
	}
	if strings.ContainsAny(name, "/?#%\\") {
		return fmt.Errorf("serve: tenant name %q contains URL-reserved characters", name)
	}
	return nil
}

// tenantOptions derives one tenant's engine options from the fleet's:
// with durability configured, Options.WALDir is a root and each tenant
// logs and checkpoints under its own subdirectory.
func (f *Fleet) tenantOptions(name string) Options {
	opt := f.opt
	if opt.WALDir != "" {
		opt.WALDir = filepath.Join(f.opt.WALDir, name)
	}
	return opt
}

// Attach runs fn for every tenant — those already registered, in name
// order, and every one created later (Add, or Publish of a new name;
// not a hot swap, which keeps the tenant's engine and whatever rides on
// it). Several Attach functions run in registration order. What fn
// attaches to the engine is stopped by the engine's Close when the
// tenant leaves the registry. fn runs while the registry write lock is
// held, so no request reaches a tenant before its attachments exist; it
// must not call back into the Fleet.
func (f *Fleet) Attach(fn func(name string, e *Engine)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.attach = append(f.attach, fn)
	for _, name := range slices.Sorted(maps.Keys(f.tenants)) {
		fn(name, f.tenants[name].eng)
	}
}

// Add registers a built router as a new tenant and returns its engine.
// The fleet takes ownership of r. Adding a name that already exists is
// an error — use Publish to hot-swap an existing tenant's artifact.
// With durability configured (Options.WALDir), the tenant's engine
// recovers its per-tenant WAL directory before serving — a checkpoint +
// log left by a previous process is the tenant's live state, not the
// bare artifact — and recovery failures (a corrupt log, a foreign road
// network) are returned rather than served around. The engine is
// constructed outside the registry lock, then registered, and the
// Attach functions run, under it.
func (f *Fleet) Add(name string, r *core.Router) (*Engine, error) {
	if err := validTenantName(name); err != nil {
		return nil, err
	}
	// Cheap pre-check before engine construction, which may run
	// minutes of CH preprocessing (and mutates r) — ownership must not
	// be touched when the add is doomed. The authoritative check under
	// the write lock below still catches a racing Add.
	if _, ok := f.Get(name); ok {
		return nil, fmt.Errorf("serve: tenant %q already exists", name)
	}
	e, err := NewDurableEngine(r, f.tenantOptions(name))
	if err != nil {
		return nil, fmt.Errorf("serve: tenant %q: %w", name, err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.tenants[name]; ok {
		// Lost a race with a concurrent Add/Publish of the same name;
		// release the loser's WAL handle rather than leaking it.
		e.Close()
		return nil, fmt.Errorf("serve: tenant %q already exists", name)
	}
	for _, fn := range f.attach {
		fn(name, e)
	}
	f.tenants[name] = newTenant(name, e)
	return e, nil
}

// Publish hot-swaps a (re)built router into the named tenant, creating
// the tenant if it does not exist yet. The fleet takes ownership of r.
// For an existing tenant the swap is atomic and non-disruptive:
// in-flight queries finish on the snapshot they loaded, the tenant's
// metrics, cache and attachments survive (stale cache entries die by
// generation), and the snapshot generation bumps. A new tenant is
// created as by Add; losing a race to a concurrent creator of the same
// name is an error. The tenant's generation after the swap is returned.
func (f *Fleet) Publish(name string, r *core.Router) (uint64, error) {
	if err := validTenantName(name); err != nil {
		return 0, err
	}
	f.mu.Lock()
	if t, ok := f.tenants[name]; ok {
		// The registry write lock is held across the engine swap so a
		// concurrent Remove+Add of the same name cannot orphan this
		// publish; Engine.Publish is O(1) (build a snapshot, swap a
		// pointer), so lookups block only briefly.
		defer f.mu.Unlock()
		t.eng.Publish(r)
		return t.eng.Generation(), nil
	}
	f.mu.Unlock()
	e, err := f.Add(name, r)
	if err != nil {
		return 0, err
	}
	return e.Generation(), nil
}

// Remove drops a tenant from the registry, reporting whether it
// existed, and closes its engine, which stops the tenant's attachments
// and then releases its write-ahead log. Queries already inside the engine
// finish on the snapshot they loaded; an ingest already inside it
// completes, because Engine.Close takes the write lock; a later ingest
// through a retained *Engine still applies in memory but is refused by
// the closed write-ahead log (durable: false). New lookups miss.
func (f *Fleet) Remove(name string) bool {
	f.mu.Lock()
	t, ok := f.tenants[name]
	delete(f.tenants, name)
	f.mu.Unlock()
	if ok {
		// The close error concerns a WAL the tenant no longer uses.
		_ = t.eng.Close()
	}
	return ok
}

// Get returns the named tenant's engine.
func (f *Fleet) Get(name string) (*Engine, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	t, ok := f.tenants[name]
	if !ok {
		return nil, false
	}
	return t.eng, true
}

// Names returns the registered tenant names, sorted.
func (f *Fleet) Names() []string {
	return slices.Sorted(maps.Keys(f.snapshotEngines()))
}

// snapshotEngines copies the tenant→engine map under the read lock so
// callers can iterate without holding it.
func (f *Fleet) snapshotEngines() map[string]*Engine {
	f.mu.RLock()
	defer f.mu.RUnlock()
	engines := make(map[string]*Engine, len(f.tenants))
	for name, t := range f.tenants {
		engines[name] = t.eng
	}
	return engines
}

// Len returns the number of registered tenants.
func (f *Fleet) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.tenants)
}

// Close removes every tenant, as Remove does: each engine is closed,
// its attachments stopped and then its WAL file handles released. The
// fleet is empty afterwards. It does not checkpoint — shut each engine
// down first (Engine.Shutdown) for replay-free restarts.
func (f *Fleet) Close() error {
	f.mu.Lock()
	tenants := f.tenants
	f.tenants = make(map[string]*tenant)
	f.mu.Unlock()
	var first error
	for _, t := range tenants {
		if err := t.eng.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// FleetStats aggregates serving health across tenants.
type FleetStats struct {
	// Uptime is the time since the fleet was created.
	Uptime time.Duration `json:"uptime_ns"`
	// Tenants is the number of registered tenants.
	Tenants int `json:"tenants"`

	// Queries, QPS, cache and coalescing counters are summed across
	// tenants; CacheHitRate is recomputed from the summed counters.
	Queries           uint64  `json:"queries"`
	QPS               float64 `json:"qps"`
	CacheHits         uint64  `json:"cache_hits"`
	CacheMisses       uint64  `json:"cache_misses"`
	CacheHitRate      float64 `json:"cache_hit_rate"`
	RouteComputations uint64  `json:"route_computations"`
	CoalescedQueries  uint64  `json:"coalesced_queries"`
	Ingests           uint64  `json:"ingests"`

	// Latency summarizes the latency distribution merged across every
	// tenant's histogram — true fleet quantiles, not an average of
	// per-tenant quantiles (which would be meaningless).
	Latency LatencyStats `json:"latency"`

	// WALRecords, WALAppendFailures and Checkpoints sum the durability
	// counters across durable tenants (zero for non-durable fleets);
	// per-tenant recovery facts live in PerTenant[...].Durability.
	WALRecords        uint64 `json:"wal_records"`
	WALAppendFailures uint64 `json:"wal_append_failures"`
	Checkpoints       uint64 `json:"checkpoints"`

	// PerTenant holds each tenant's full serving stats, keyed by name.
	PerTenant map[string]Stats `json:"per_tenant"`
}

// Stats gathers a point-in-time aggregate across all tenants.
func (f *Fleet) Stats() FleetStats {
	engines := f.snapshotEngines()
	fs := FleetStats{
		Uptime:    time.Since(f.start),
		Tenants:   len(engines),
		PerTenant: make(map[string]Stats, len(engines)),
	}
	merged := &obs.Histogram{}
	for name, e := range engines {
		st := e.Stats()
		fs.PerTenant[name] = st
		merged.Merge(e.met.overall())
		fs.Queries += st.Queries
		fs.CacheHits += st.CacheHits
		fs.CacheMisses += st.CacheMisses
		fs.RouteComputations += st.RouteComputations
		fs.CoalescedQueries += st.CoalescedQueries
		fs.Ingests += st.Ingests
		if st.Durability != nil {
			fs.WALRecords += st.Durability.WALRecords
			fs.WALAppendFailures += st.Durability.WALAppendFailures
			fs.Checkpoints += st.Durability.Checkpoints
		}
	}
	fs.Latency = latencyStats(merged)
	if fs.Uptime > 0 {
		fs.QPS = float64(fs.Queries) / fs.Uptime.Seconds()
	}
	if total := fs.CacheHits + fs.CacheMisses; total > 0 {
		fs.CacheHitRate = float64(fs.CacheHits) / float64(total)
	}
	return fs
}

// ArtifactExt is the artifact file extension fleet directory loading
// recognizes.
const ArtifactExt = ".l2r"

// fileState is the watcher's change-detection key for one artifact
// file.
type fileState struct {
	mtime time.Time
	size  int64
}

// Watcher keeps a fleet in sync with a directory of router artifacts:
// every <name>.l2r file is served as tenant <name>, and a file whose
// mtime or size changes is reloaded and atomically published into the
// live fleet — a rebuilt artifact dropped into the directory replaces
// its tenant without dropping in-flight queries.
//
// A file mid-rewrite simply fails the artifact checksum (or decode) on
// that scan; the tenant keeps serving its current snapshot, and the
// file is retried as soon as its mtime or size changes again — which a
// finishing writer always causes — so a non-atomic copy into the
// directory is safe, while a file that is simply corrupt is not
// re-read on every tick. Files that disappear do not remove their
// tenant.
//
// Watcher is single-goroutine: run Scan/Watch from one place.
type Watcher struct {
	fleet *Fleet
	dir   string
	known map[string]fileState
	// Logf, when set, receives one line per load, swap and failure.
	Logf func(format string, args ...any)
}

// NewWatcher creates a watcher over dir for fleet. No scan happens
// until Scan or Watch is called.
func NewWatcher(fleet *Fleet, dir string) *Watcher {
	return &Watcher{fleet: fleet, dir: dir, known: make(map[string]fileState)}
}

func (w *Watcher) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// Scan walks the directory once, loading new artifacts and publishing
// changed ones. It returns how many tenants were loaded or swapped and
// how many files failed (unreadable, corrupt, or mid-write).
func (w *Watcher) Scan() (loaded, swapped, failed int) {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		w.logf("fleet watch: reading %s: %v", w.dir, err)
		return 0, 0, 1
	}
	for _, entry := range entries {
		if entry.IsDir() || !strings.HasSuffix(entry.Name(), ArtifactExt) {
			continue
		}
		name := strings.TrimSuffix(entry.Name(), ArtifactExt)
		info, err := entry.Info()
		if err != nil {
			w.logf("fleet watch: stat %s: %v", entry.Name(), err)
			failed++
			continue
		}
		st := fileState{mtime: info.ModTime(), size: info.Size()}
		if prev, ok := w.known[name]; ok && prev == st {
			continue
		}
		// Record the observed state for failures too: a file that keeps
		// failing (corrupt, unaddressable name) is not re-read every
		// tick, while a writer racing this scan changes mtime/size when
		// it finishes and triggers the retry.
		w.known[name] = st
		if err := validTenantName(name); err != nil {
			// Free check, so it runs before paying for the load.
			w.logf("fleet watch: skipping %s: %v", entry.Name(), err)
			failed++
			continue
		}
		path := filepath.Join(w.dir, entry.Name())
		router, loadedSt, err := loadArtifact(path)
		if err != nil {
			// Possibly a writer racing us; leave the tenant (if any) on
			// its current snapshot until the file changes again.
			w.logf("fleet watch: loading %s: %v", path, err)
			failed++
			continue
		}
		// Prefer the state fstat'ed from the opened handle — the bytes
		// actually decoded. A writer who finished between the directory
		// stat and the open would otherwise leave a stale recorded
		// state and trigger a spurious re-publish next tick.
		w.known[name] = loadedSt
		_, existed := w.fleet.Get(name)
		gen, err := w.fleet.Publish(name, router)
		if err != nil {
			w.logf("fleet watch: publishing %s: %v", name, err)
			failed++
			continue
		}
		meta := router.Meta()
		if existed {
			swapped++
			w.logf("fleet watch: tenant %q hot-swapped from %s (artifact generation %d, snapshot generation %d)",
				name, entry.Name(), meta.Generation, gen)
		} else {
			loaded++
			w.logf("fleet watch: tenant %q loaded from %s (artifact generation %d)",
				name, entry.Name(), meta.Generation)
		}
	}
	return loaded, swapped, failed
}

// Watch rescans every interval until ctx is done. The initial scan is
// the caller's (usually done synchronously via Scan before serving). A
// non-positive interval disables periodic rescans: Watch returns
// immediately.
func (w *Watcher) Watch(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		w.logf("fleet watch: rescanning disabled (interval %v)", interval)
		return
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			w.Scan()
		}
	}
}

// loadArtifact loads one artifact file and reports the fileState of
// the very handle it decoded (a rename-replace after the open leaves
// the old inode's state here, and the directory stat next scan
// triggers the reload of the new one).
func loadArtifact(path string) (*core.Router, fileState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fileState{}, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, fileState{}, err
	}
	r, err := core.Load(f)
	return r, fileState{mtime: info.ModTime(), size: info.Size()}, err
}
