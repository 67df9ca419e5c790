package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/traj"
)

func TestFleetAddGetRemove(t *testing.T) {
	base, _ := sharedWorld(t)
	f := NewFleet(Options{})

	if _, err := f.Add("", base.Clone()); err == nil {
		t.Fatal("empty tenant name accepted")
	}
	if _, err := f.Add("bei/jing", base.Clone()); err == nil {
		t.Fatal("tenant name with slash accepted")
	}

	e, err := f.Add("beijing", base.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Add("beijing", base.Clone()); err == nil {
		t.Fatal("duplicate tenant name accepted")
	}
	if _, err = f.Add("chengdu", base.Clone()); err != nil {
		t.Fatal(err)
	}

	got, ok := f.Get("beijing")
	if !ok || got != e {
		t.Fatal("Get returned the wrong engine")
	}
	if _, ok := f.Get("nowhere"); ok {
		t.Fatal("Get found an unregistered tenant")
	}
	if names := f.Names(); len(names) != 2 || names[0] != "beijing" || names[1] != "chengdu" {
		t.Fatalf("Names() = %v", names)
	}
	if !f.Remove("chengdu") || f.Remove("chengdu") {
		t.Fatal("Remove bookkeeping wrong")
	}
	if f.Len() != 1 {
		t.Fatalf("Len() = %d after remove", f.Len())
	}
}

// TestFleetTwoTenantsHotSwapMidTraffic is the acceptance test of the
// multi-tenant design: two tenants serve concurrently while one
// tenant's artifact is hot-swapped mid-traffic. No in-flight query may
// error or return an invalid path, the swapped tenant's generation
// must observably bump, and the other tenant must be untouched.
func TestFleetTwoTenantsHotSwapMidTraffic(t *testing.T) {
	baseA, freshA := buildServeWorld(t, 61, 400)
	baseB, freshB := buildServeWorld(t, 62, 400)
	roadA, roadB := baseA.Road(), baseB.Road()

	// The replacement artifact for tenant A: same road network, rebuilt
	// with the full trajectory set (what an offline rebuild would ship).
	var rebuilt *core.Router
	{
		all := append([]*traj.Trajectory{}, freshA...)
		r, err := core.Build(roadA, all, core.Options{SkipMapMatching: true})
		if err != nil {
			t.Fatal(err)
		}
		rebuilt = r
	}

	f := NewFleet(Options{CacheSize: 512})
	if _, err := f.Add("acity", baseA); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Add("bcity", baseB); err != nil {
		t.Fatal(err)
	}
	engA, _ := f.Get("acity")
	engB, _ := f.Get("bcity")
	genA, genB := engA.Generation(), engB.Generation()

	qsA := queries(freshA, 48)
	qsB := queries(freshB, 48)

	var (
		wg      sync.WaitGroup
		swapped = make(chan struct{})
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name, qs, road := "acity", qsA, roadA
			if w%2 == 1 {
				name, qs, road = "bcity", qsB, roadB
			}
			for i := 0; i < 300; i++ {
				e, ok := f.Get(name)
				if !ok {
					t.Errorf("tenant %q vanished mid-traffic", name)
					return
				}
				q := qs[(i*7+w*13)%len(qs)]
				res, _ := e.Route(q.Src, q.Dst)
				if len(res.Path) >= 2 && !res.Path.Valid(road) {
					t.Errorf("tenant %q returned an invalid path mid-swap", name)
					return
				}
				if i == 150 && w == 0 {
					// Swap tenant A's artifact from inside the traffic.
					if _, err := f.Publish("acity", rebuilt); err != nil {
						t.Errorf("Publish: %v", err)
						return
					}
					close(swapped)
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case <-swapped:
	default:
		t.Fatal("swap never ran")
	}

	if got := engA.Generation(); got != genA+1 {
		t.Fatalf("tenant A generation = %d, want %d (hot swap must bump)", got, genA+1)
	}
	if got := engB.Generation(); got != genB {
		t.Fatalf("tenant B generation = %d, want %d (swap of A must not touch B)", got, genB)
	}
	if engA.Snapshot() != rebuilt {
		t.Fatal("tenant A is not serving the published router")
	}
	st := f.Stats()
	if st.Tenants != 2 || st.Queries == 0 {
		t.Fatalf("fleet stats = %+v", st)
	}
	if st.PerTenant["acity"].Queries == 0 || st.PerTenant["bcity"].Queries == 0 {
		t.Fatal("per-tenant query counters empty")
	}
}

// saveArtifact writes r as dir/<name>.l2r.
func saveArtifact(t *testing.T, r *core.Router, dir, name string) string {
	t.Helper()
	path := filepath.Join(dir, name+ArtifactExt)
	tmp := path + ".tmp"
	fh, err := os.Create(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Save(fh); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestWatcherLoadsAndHotReloads(t *testing.T) {
	baseA, freshA := buildServeWorld(t, 63, 400)
	baseB, _ := buildServeWorld(t, 64, 400)
	dir := t.TempDir()
	saveArtifact(t, baseA, dir, "acity")
	saveArtifact(t, baseB, dir, "bcity")
	// A stray non-artifact file must be ignored.
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("not an artifact"), 0o644); err != nil {
		t.Fatal(err)
	}

	f := NewFleet(Options{})
	w := NewWatcher(f, dir)
	w.Logf = t.Logf
	loaded, swapped, failed := w.Scan()
	if loaded != 2 || swapped != 0 || failed != 0 {
		t.Fatalf("initial scan: loaded=%d swapped=%d failed=%d", loaded, swapped, failed)
	}
	engA, ok := f.Get("acity")
	if !ok {
		t.Fatal("tenant acity not loaded")
	}
	if engA.Snapshot().Meta().Generation != 1 {
		t.Fatalf("artifact generation = %d, want 1", engA.Snapshot().Meta().Generation)
	}
	q := queries(freshA, 1)[0]
	if res, _ := engA.Route(q.Src, q.Dst); len(res.Path) < 2 {
		t.Fatal("loaded tenant cannot route")
	}

	// An unchanged directory swaps nothing.
	if l, s, fl := w.Scan(); l != 0 || s != 0 || fl != 0 {
		t.Fatalf("no-op scan: loaded=%d swapped=%d failed=%d", l, s, fl)
	}

	// Rebuild tenant A's artifact (ingest + re-save) and drop it in.
	updated := baseA.IngestClone()
	updated.Ingest(freshA, core.IngestOptions{SkipMapMatching: true})
	path := saveArtifact(t, updated, dir, "acity")
	// Force a visible mtime change even on coarse-granularity
	// filesystems.
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}

	genBefore := engA.Generation()
	if l, s, fl := w.Scan(); l != 0 || s != 1 || fl != 0 {
		t.Fatalf("reload scan: loaded=%d swapped=%d failed=%d", l, s, fl)
	}
	if got := engA.Generation(); got != genBefore+1 {
		t.Fatalf("snapshot generation after hot reload = %d, want %d", got, genBefore+1)
	}
	if got := engA.Snapshot().Meta().Generation; got != 2 {
		t.Fatalf("artifact generation after hot reload = %d, want 2", got)
	}

	// A corrupt artifact must not dethrone the serving snapshot.
	if err := os.WriteFile(filepath.Join(dir, "acity"+ArtifactExt), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	later := future.Add(2 * time.Second)
	if err := os.Chtimes(filepath.Join(dir, "acity"+ArtifactExt), later, later); err != nil {
		t.Fatal(err)
	}
	if _, s, fl := w.Scan(); s != 0 || fl != 1 {
		t.Fatalf("corrupt scan: swapped=%d failed=%d", s, fl)
	}
	if res, _ := engA.Route(q.Src, q.Dst); len(res.Path) < 2 {
		t.Fatal("tenant stopped serving after a corrupt reload attempt")
	}
	// An unchanged corrupt file is not re-read (and re-failed) on the
	// next tick; it is retried only when its mtime/size changes.
	if _, s, fl := w.Scan(); s != 0 || fl != 0 {
		t.Fatalf("unchanged corrupt file rescanned: swapped=%d failed=%d", s, fl)
	}
}

func newFleetTestServer(t *testing.T) (*Fleet, *httptest.Server) {
	t.Helper()
	base, _ := sharedWorld(t)
	f := NewFleet(Options{})
	if _, err := f.Add("acity", base.Clone()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Add("bcity", base.Clone()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	t.Cleanup(srv.Close)
	return f, srv
}

func TestFleetHTTPRouting(t *testing.T) {
	_, srv := newFleetTestServer(t)
	_, fresh := sharedWorld(t)
	q := queries(fresh, 1)[0]

	var reply struct {
		Routes     []RouteJSON `json:"routes"`
		Generation uint64      `json:"generation"`
	}
	for _, tenant := range []string{"acity", "bcity"} {
		url := fmt.Sprintf("%s/t/%s/route?src=%d&dst=%d", srv.URL, tenant, q.Src, q.Dst)
		getJSON(t, url, http.StatusOK, &reply)
		if len(reply.Routes) != 1 || len(reply.Routes[0].Path) < 2 {
			t.Fatalf("tenant %s: bad reply %+v", tenant, reply)
		}
	}

	// The alternatives and stats endpoints nest under the tenant too.
	getJSON(t, fmt.Sprintf("%s/t/acity/route/alternatives?src=%d&dst=%d&k=2", srv.URL, q.Src, q.Dst),
		http.StatusOK, nil)
	var st Stats
	getJSON(t, srv.URL+"/t/acity/stats", http.StatusOK, &st)
	if st.Queries == 0 {
		t.Fatal("tenant stats empty after queries")
	}
}

func TestFleetHTTPUnknownTenant(t *testing.T) {
	_, srv := newFleetTestServer(t)
	getJSON(t, srv.URL+"/t/nowhere/route?src=1&dst=2", http.StatusNotFound, nil)
	getJSON(t, srv.URL+"/t/nowhere/stats", http.StatusNotFound, nil)
	getJSON(t, srv.URL+"/t/", http.StatusNotFound, nil)
	// A bare /t/{tenant} must 404 with a hint, not 301-redirect to the
	// fleet root (which would lose the tenant context).
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Get(srv.URL + "/t/acity")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bare /t/acity: status %d want 404", resp.StatusCode)
	}
}

func TestFleetHTTPTenantsAndStats(t *testing.T) {
	f, srv := newFleetTestServer(t)
	_, fresh := sharedWorld(t)
	q := queries(fresh, 1)[0]
	getJSON(t, fmt.Sprintf("%s/t/acity/route?src=%d&dst=%d", srv.URL, q.Src, q.Dst), http.StatusOK, nil)

	var listing struct {
		Tenants []TenantInfo `json:"tenants"`
	}
	getJSON(t, srv.URL+"/tenants", http.StatusOK, &listing)
	if len(listing.Tenants) != 2 {
		t.Fatalf("tenants listing = %+v", listing)
	}
	if listing.Tenants[0].Name != "acity" || listing.Tenants[1].Name != "bcity" {
		t.Fatalf("tenant order = %+v", listing.Tenants)
	}
	if listing.Tenants[0].Vertices == 0 || listing.Tenants[0].SnapshotGeneration != 1 {
		t.Fatalf("tenant info = %+v", listing.Tenants[0])
	}

	var fs FleetStats
	getJSON(t, srv.URL+"/stats", http.StatusOK, &fs)
	if fs.Tenants != 2 || fs.Queries == 0 {
		t.Fatalf("fleet stats = %+v", fs)
	}
	if len(fs.PerTenant) != 2 {
		t.Fatalf("per-tenant stats = %+v", fs.PerTenant)
	}

	var health struct {
		Status      string            `json:"status"`
		Tenants     int               `json:"tenants"`
		Generations map[string]uint64 `json:"generations"`
	}
	getJSON(t, srv.URL+"/healthz", http.StatusOK, &health)
	if health.Status != "ok" || health.Tenants != 2 || health.Generations["acity"] != 1 {
		t.Fatalf("healthz = %+v", health)
	}

	// Hot-swap through the registry shows up in the listing.
	base, _ := sharedWorld(t)
	if _, err := f.Publish("acity", base.IngestClone()); err != nil {
		t.Fatal(err)
	}
	getJSON(t, srv.URL+"/tenants", http.StatusOK, &listing)
	if listing.Tenants[0].SnapshotGeneration != 2 {
		t.Fatalf("generation after publish = %d, want 2", listing.Tenants[0].SnapshotGeneration)
	}
}

// TestFleetOnCreate: a Fleet.Attach function fires for Add and for
// Publish of a new name (the watcher's hot-load path), but not for a
// hot swap of an existing tenant — the engine, and whatever was
// attached to it, survives the swap.
func TestFleetOnCreate(t *testing.T) {
	base, _ := sharedWorld(t)
	f := NewFleet(Options{})
	var created []string
	f.Attach(func(name string, e *Engine) {
		if e == nil {
			t.Errorf("Attach function for %q got nil engine", name)
		}
		created = append(created, name)
	})
	if _, err := f.Add("a", base.IngestClone()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Publish("b", base.IngestClone()); err != nil {
		t.Fatal(err)
	}
	ebBefore, _ := f.Get("b")
	if _, err := f.Publish("b", base.IngestClone()); err != nil { // hot swap
		t.Fatal(err)
	}
	ebAfter, _ := f.Get("b")
	if ebBefore != ebAfter {
		t.Fatal("hot swap replaced the engine; attachments would be lost")
	}
	if len(created) != 2 || created[0] != "a" || created[1] != "b" {
		t.Fatalf("Attach function fired for %v, want [a b]", created)
	}
}

// TestFleetPublishNewTenantDoesNotBlockLookups: a hot-load — Publish of
// a name the fleet does not have, what the Watcher does for a new
// artifact — constructs the tenant's engine (checkpoint decode, CH
// contraction, WAL replay) outside the registry lock, so the other
// tenants keep answering while it runs, and the new tenant is attached
// exactly once when it lands.
func TestFleetPublishNewTenantDoesNotBlockLookups(t *testing.T) {
	base, fresh := sharedWorld(t)
	walRoot := t.TempDir()
	hold := make(chan struct{}) // every tenant's recovery waits for one receive
	f := NewFleet(Options{WALDir: walRoot, recoverHold: hold})
	defer f.Close()
	attached := map[string]int{} // written under the registry lock
	f.Attach(func(name string, _ *Engine) {
		attached[name]++
	})

	addDone := make(chan error, 1)
	go func() {
		_, err := f.Add("a", base.IngestClone())
		addDone <- err
	}()
	hold <- struct{}{}
	if err := <-addDone; err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	pubDone := make(chan error, 1)
	go func() {
		_, err := f.Publish("b", base.IngestClone())
		pubDone <- err
	}()
	// b's WAL directory appears when its recovery opens the log, just
	// before the hold: construction is then under way.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, err := os.Stat(filepath.Join(walRoot, "b")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Publish of b never reached recovery")
		}
	}

	looked := make(chan struct{})
	go func() {
		defer close(looked)
		if _, ok := f.Get("a"); !ok {
			t.Error("tenant a missing")
		}
		q := queries(fresh, 1)[0]
		resp, err := http.Get(fmt.Sprintf("%s/t/a/route?src=%d&dst=%d", srv.URL, q.Src, q.Dst))
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET /t/a/route = %d during the hot-load of b", resp.StatusCode)
		}
	}()
	select {
	case <-looked:
	case <-time.After(5 * time.Second):
		t.Error("lookups of tenant a blocked behind the hot-load of tenant b")
	}
	select {
	case err := <-pubDone:
		t.Fatalf("Publish of b returned (%v) while its recovery was held", err)
	default:
	}

	hold <- struct{}{}
	if err := <-pubDone; err != nil {
		t.Fatal(err)
	}
	<-looked
	q := queries(fresh, 1)[0]
	getJSON(t, fmt.Sprintf("%s/t/b/route?src=%d&dst=%d", srv.URL, q.Src, q.Dst), http.StatusOK, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	if attached["a"] != 1 || attached["b"] != 1 {
		t.Fatalf("attach counts %v, want a and b once each", attached)
	}
}

// TestFleetReadsDoNotWaitOnTenantPublish: a hot swap of one tenant
// waits for that tenant's write lock — here a maintenance rebuild
// parked inside its rebuild function — and the fleet's reads do not
// wait with it: both tenants' routes, /stats and /tenants each answer
// within 5 s while the publish is stuck, and the publish lands once the
// rebuild does.
func TestFleetReadsDoNotWaitOnTenantPublish(t *testing.T) {
	base, fresh := sharedWorld(t)
	f := NewFleet(Options{})
	defer f.Close()
	a, err := f.Add("a", base.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Add("b", base.Clone()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	parked, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	unpark := func() { releaseOnce.Do(func() { close(release) }) }
	defer unpark()
	rebuilt := make(chan error, 1)
	go func() {
		_, err := a.RebuildSnapshot(context.Background(), func(*core.Router) error {
			close(parked)
			<-release
			return nil
		})
		rebuilt <- err
	}()
	<-parked
	published := make(chan error, 1)
	go func() {
		_, err := f.Publish("a", base.IngestClone())
		published <- err
	}()
	// The publish is stuck once its goroutine is inside Engine.Publish,
	// waiting for the write lock the rebuild holds.
	for deadline := time.Now().Add(10 * time.Second); !stackHas("serve.(*Engine).Publish("); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("Fleet.Publish never reached the tenant's engine")
		}
	}

	q := queries(fresh, 1)[0]
	for _, path := range []string{
		fmt.Sprintf("/t/b/route?src=%d&dst=%d", q.Src, q.Dst),
		fmt.Sprintf("/t/a/route?src=%d&dst=%d", q.Src, q.Dst),
		"/stats",
		"/tenants",
	} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
			}
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("GET %s waited on tenant a's publish", path)
		}
	}
	select {
	case err := <-published:
		t.Fatalf("Publish returned (%v) while the rebuild held the write lock", err)
	default:
	}

	unpark()
	if err := <-rebuilt; err != nil {
		t.Fatal(err)
	}
	if err := <-published; err != nil {
		t.Fatal(err)
	}
	if g := a.Generation(); g != 3 {
		t.Fatalf("tenant a at generation %d after a rebuild and a publish, want 3", g)
	}
}

// stackHas reports whether any goroutine's stack holds a frame whose
// name starts with fn.
func stackHas(fn string) bool {
	buf := make([]byte, 1<<20)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte(fn))
}

// TestTenantPathSplit pins what each reader of the /t/{tenant} prefix
// makes of a path: whether the middleware treats it as telemetry (and
// leaves it untraced), the tenant the access log names, and what the
// fleet's handler answers with one tenant, "a", registered.
func TestTenantPathSplit(t *testing.T) {
	base, _ := sharedWorld(t)
	f := NewFleet(Options{})
	if _, err := f.Add("a", base.Clone()); err != nil {
		t.Fatal(err)
	}
	h := f.Handler()
	for _, c := range []struct {
		path      string
		telemetry bool
		tenant    string
		status    int
		err       string
	}{
		{"/t/a/route", false, "a", 400, `missing query parameter "src"`},
		{"/t/a", false, "a", 404, "missing endpoint; use /t/a/route"},
		{"/t/a/", false, "a", 404, "missing endpoint; use /t/a/route"},
		{"/t/", false, "", 404, "missing tenant name; use /t/{tenant}/route"},
		{"/t/debug/route", false, "debug", 404, `unknown tenant "debug"`},
		{"/t/metrics", false, "metrics", 404, `unknown tenant "metrics"`},
		{"/t/a/metrics", true, "a", 200, ""},
		{"/metrics", true, "", 200, ""},
		{"/debug/trace", true, "", 200, ""},
		{"/tenants", false, "", 200, ""},
	} {
		if got := telemetryPath(c.path); got != c.telemetry {
			t.Errorf("%s: telemetryPath %v, want %v", c.path, got, c.telemetry)
		}
		if got, _, _ := splitTenant(c.path); got != c.tenant {
			t.Errorf("%s: tenant %q, want %q", c.path, got, c.tenant)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, c.path, nil))
		var reply struct{ Error string }
		json.Unmarshal(rec.Body.Bytes(), &reply)
		if rec.Code != c.status || reply.Error != c.err {
			t.Errorf("%s: fleet answers %d %q, want %d %q", c.path, rec.Code, reply.Error, c.status, c.err)
		}
	}
}
