package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/roadnet"
)

// RouteJSON, routeReply and toJSON are the reflection-based reply the
// route endpoints wrote through encoding/json before the append
// encoder: the reference appendRouteReply is held to.

// RouteJSON is the wire form of one recommended route.
type RouteJSON struct {
	Source         int     `json:"source"`
	Destination    int     `json:"destination"`
	Path           []int   `json:"path"`
	LengthM        float64 `json:"length_m"`
	TravelTimeS    float64 `json:"travel_time_s"`
	Category       string  `json:"category"`
	Evidence       string  `json:"evidence"`
	UsedRegionPath bool    `json:"used_region_path"`
	RegionPath     []int   `json:"region_path,omitempty"`
}

// routeReply is the /route and /route/alternatives response body.
type routeReply struct {
	Routes     []RouteJSON `json:"routes"`
	Cached     bool        `json:"cached"`
	Generation uint64      `json:"generation"`
}

func toJSON(road *roadnet.Graph, res core.RouteResult, s, d roadnet.VertexID) RouteJSON {
	out := RouteJSON{
		Source:         int(s),
		Destination:    int(d),
		Path:           make([]int, len(res.Path)),
		Category:       res.Category.String(),
		Evidence:       res.Evidence.String(),
		UsedRegionPath: res.UsedRegionPath,
		RegionPath:     res.RegionPath,
	}
	for i, v := range res.Path {
		out.Path[i] = int(v)
	}
	if len(res.Path) >= 2 {
		out.LengthM = res.Path.Length(road)
		out.TravelTimeS = res.Path.Cost(road, roadnet.TT)
	}
	return out
}

// referenceReply is the body the handlers used to write: the reference
// structs through an indenting json.Encoder.
func referenceReply(t testing.TB, rep routeReply) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		t.Fatalf("reference encoder: %v", err)
	}
	return buf.Bytes()
}

// decodeLiteral decodes a JSON document keeping every number as its
// literal text, so two documents compare equal only if their numbers
// were written digit for digit the same.
func decodeLiteral(t testing.TB, b []byte) any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("decoding %q: %v", b, err)
	}
	return v
}

// checkEncoderAgainstReference holds appendRouteReply to the reference
// on one reply whose measures are given (not walked): the raw bytes are
// valid JSON, decode to what the reference's decode to, and equal the
// reference with its whitespace removed — which pins the key order too.
func checkEncoderAgainstReference(t testing.TB, s, d roadnet.VertexID, res []core.RouteResult, meas []measure, cached bool, gen uint64) {
	t.Helper()
	rep := routeReply{Cached: cached, Generation: gen}
	for i, r := range res {
		rj := toJSON(nil, core.RouteResult{Category: r.Category, Evidence: r.Evidence,
			UsedRegionPath: r.UsedRegionPath, RegionPath: r.RegionPath}, s, d)
		rj.Path = make([]int, len(r.Path))
		for j, v := range r.Path {
			rj.Path[j] = int(v)
		}
		rj.LengthM, rj.TravelTimeS = meas[i].lengthM, meas[i].travelTimeS
		rep.Routes = append(rep.Routes, rj)
	}
	want := referenceReply(t, rep)
	got := appendRouteReply(nil, s, d, res, meas, cached, gen)
	if !json.Valid(got) {
		t.Fatalf("encoder wrote invalid JSON: %q", got)
	}
	if !reflect.DeepEqual(decodeLiteral(t, got), decodeLiteral(t, want)) {
		t.Fatalf("decoded replies differ\n got: %s\nwant: %s", got, want)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), compact.Bytes()) {
		t.Fatalf("bytes differ from the compacted reference\n got: %s\nwant: %s", got, compact.Bytes())
	}
}

func TestRouteReplyEncoderMatchesEncodingJSON(t *testing.T) {
	paths := []roadnet.Path{{7}, {3, 4}, {0, 12, 150, 9, 2147483647}, {}}
	regionPaths := [][]int{nil, {}, {5}, {0, 17, 123456}}
	floats := []float64{0, 1, 5e-324, 9.99e-7, 1e-6, 1.5e-7, 123.456, 0.1 + 0.2, 1234567.8901234567,
		1e20, 9.999999999999999e20, 1e21, 1.2345678901234567e25, math.MaxFloat64}
	cats := []core.Category{core.InRegion, core.InOutRegion, core.OutRegion}
	evs := []core.Evidence{core.EvidenceNone, core.EvidenceInnerPath, core.EvidenceExactStored,
		core.EvidencePreference, core.EvidenceStitched, core.EvidenceFastest}
	n := 0
	for _, k := range []int{1, 4} {
		for ci, cat := range cats {
			for ei, ev := range evs {
				for _, cached := range []bool{false, true} {
					res := make([]core.RouteResult, k)
					meas := make([]measure, k)
					for i := range res {
						res[i] = core.RouteResult{
							Path:           paths[(n+i)%len(paths)],
							Category:       cat,
							Evidence:       ev,
							UsedRegionPath: (n+i)%2 == 0,
							RegionPath:     regionPaths[(n+i)%len(regionPaths)],
						}
						meas[i] = measure{floats[(n+i)%len(floats)], floats[(n+3*i+ci+ei)%len(floats)]}
					}
					gen := []uint64{1, 42, math.MaxUint64}[n%3]
					checkEncoderAgainstReference(t, roadnet.VertexID(n), roadnet.VertexID(1000-n), res, meas, cached, gen)
					n++
				}
			}
		}
	}
	// Every float on its own, in both fields.
	for _, f := range floats {
		res := []core.RouteResult{{Path: roadnet.Path{1, 2}, Evidence: core.EvidenceFastest}}
		checkEncoderAgainstReference(t, 1, 2, res, []measure{{f, f}}, false, 1)
	}
}

func FuzzRouteReplyEncoder(f *testing.F) {
	f.Add(int64(1), uint8(1), 12.5, 3.25, true, uint64(1))
	f.Add(int64(2), uint8(4), 1e-9, 1e22, false, uint64(1<<63))
	f.Add(int64(3), uint8(16), 0.0, 0.30000000000000004, true, uint64(0))
	f.Fuzz(func(t *testing.T, seed int64, k uint8, length, tt float64, cached bool, gen uint64) {
		if !finite(length) || !finite(tt) {
			t.Skip("the handler answers non-finite measures 500 before encoding")
		}
		rng := rand.New(rand.NewSource(seed))
		res := make([]core.RouteResult, 1+int(k)%maxAlternatives)
		meas := make([]measure, len(res))
		for i := range res {
			p := make(roadnet.Path, rng.Intn(40))
			for j := range p {
				p[j] = roadnet.VertexID(rng.Int31())
			}
			rp := make([]int, rng.Intn(6))
			for j := range rp {
				rp[j] = rng.Intn(1 << 20)
			}
			res[i] = core.RouteResult{Path: p, Category: core.Category(rng.Intn(3)), Evidence: core.Evidence(rng.Intn(6)),
				UsedRegionPath: rng.Intn(2) == 0, RegionPath: rp}
			meas[i] = measure{length * rng.Float64(), tt * rng.ExpFloat64()}
			if !finite(meas[i].lengthM) || !finite(meas[i].travelTimeS) {
				meas[i] = measure{length, tt}
			}
		}
		checkEncoderAgainstReference(t, roadnet.VertexID(rng.Int31()), roadnet.VertexID(rng.Int31()), res, meas, cached, gen)
	})
}

// serveOnce drives h in process and returns what it wrote.
func serveOnce(h http.Handler, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}

// TestHandlerRepliesDecodeAsReference is the end-to-end half of the
// gate: for real ODs, through Engine.Handler, with the cache on (miss,
// then hit — whose measures come from the cache) and off (walked per
// reply), /route and /route/alternatives decode to exactly what the
// reference marshals from the engine's own results — measures walked by
// Path.Length and Path.Cost, which the fused walk must equal to the
// digit.
func TestHandlerRepliesDecodeAsReference(t *testing.T) {
	base, fresh := sharedWorld(t)
	for _, cacheSize := range []int{0, -1} {
		e := NewEngine(base.Clone(), Options{CacheSize: cacheSize})
		h, road := e.Handler(), e.Snapshot().Road()
		asked := map[string]bool{} // two trips may share an OD
		for _, q := range queries(fresh, 30) {
			for _, k := range []int{1, 4} {
				target := fmt.Sprintf("/route?src=%d&dst=%d", q.Src, q.Dst)
				if k > 1 {
					target = fmt.Sprintf("/route/alternatives?src=%d&dst=%d&k=%d", q.Src, q.Dst, k)
				}
				for pass := 0; pass < 2; pass++ {
					rec := serveOnce(h, target)
					if rec.Code != http.StatusOK {
						t.Fatalf("GET %s: status %d: %s", target, rec.Code, rec.Body)
					}
					want := routeReply{Cached: cacheSize == 0 && asked[target], Generation: e.Generation()}
					asked[target] = true
					results, _ := e.RouteK(q.Src, q.Dst, k)
					for _, res := range results {
						want.Routes = append(want.Routes, toJSON(road, res, q.Src, q.Dst))
					}
					body := rec.Body.Bytes()
					if !json.Valid(body) || !reflect.DeepEqual(decodeLiteral(t, body), decodeLiteral(t, referenceReply(t, want))) {
						t.Fatalf("GET %s (cache %d, pass %d)\n got: %s\nwant: %s", target, cacheSize, pass, body, referenceReply(t, want))
					}
					if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(len(body)) {
						t.Fatalf("Content-Length %q for a %d-byte body", got, len(body))
					}
					if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" || rec.Header().Get("Cache-Control") != "no-store" {
						t.Fatalf("headers = %v", rec.Header())
					}
				}
			}
		}
	}
}

// TestNonFiniteMeasureAnswers500 drives the reply writer with a result
// whose path is not a walk: Path.Cost gives such a hop +Inf, which JSON
// cannot carry. The reply must be a 500 in the API's error shape, not a
// 200 with an empty body.
func TestNonFiniteMeasureAnswers500(t *testing.T) {
	base, _ := sharedWorld(t)
	road := base.Road()
	var far roadnet.VertexID
	for v := 1; v < road.NumVertices(); v++ {
		if road.FindEdge(0, roadnet.VertexID(v)) == roadnet.NoEdge {
			far = roadnet.VertexID(v)
			break
		}
	}
	notAWalk := []core.RouteResult{{Path: roadnet.Path{0, far}, Evidence: core.EvidenceFastest}}
	for name, meas := range map[string][]measure{
		"walked":  nil,
		"carried": {{math.Inf(1), 1}},
		"nan":     {{1, math.NaN()}},
	} {
		rec := httptest.NewRecorder()
		writeRouteReply(rec, road, 0, far, notAWalk, meas, false, 1)
		var body struct {
			Error string `json:"error"`
		}
		if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &body) != nil || body.Error == "" {
			t.Errorf("%s: status %d, body %q; want 500 with an error body", name, rec.Code, rec.Body)
		}
	}
}

// TestRawQueryMatchesParseQuery pins the query scanner to
// url.ParseQuery(...).Get — the parse r.URL.Query() does, errors
// dropped — on a table and on random queries over a small alphabet.
func TestRawQueryMatchesParseQuery(t *testing.T) {
	check := func(raw string) {
		t.Helper()
		want, _ := url.ParseQuery(raw)
		q := queryOf(&http.Request{URL: &url.URL{RawQuery: raw}})
		for _, key := range []string{"src", "dst", "k", "s", "srcx"} {
			if got := q.Get(key); got != want.Get(key) {
				t.Fatalf("query %q: Get(%q) = %q, url.ParseQuery gives %q", raw, key, got, want.Get(key))
			}
		}
	}
	for _, raw := range []string{
		"", "src=1&dst=2", "src=1&dst=2&k=3", "dst=2&src=1",
		"src=1&src=2&dst=3",     // repeated key: first wins
		"src=&src=2&dst=",       // empty first value still wins
		"src&dst=2",             // missing '='
		"&&src=1&&dst=2&",       // empty pairs
		"=1&src=2",              // empty key
		"src=1=2&dst==",         // '=' inside a value
		"srcx=9&xsrc=8&src=1",   // keys that contain the name
		"SRC=1&Dst=2",           // keys are case-sensitive
		"src=%31&dst=2",         // escape in a value (fallback)
		"s%72c=1&dst=2",         // escape in a key (fallback)
		"src=1+2&dst=2",         // '+' is a space (fallback)
		"src=%zz&dst=2",         // bad escape: the pair is dropped
		"src=1;dst=2",           // ';' pair is dropped whole
		"src=1&dst=2;k=3",       // ... and only that pair
		"src=1&dst=2&k=3;",      // ... wherever the ';' sits
		"k=16&src=-5&dst=99999", // values are not interpreted here
	} {
		check(raw)
	}
	rng := rand.New(rand.NewSource(22))
	alphabet := []string{"src", "dst", "k", "s", "=", "=", "&", "&", "1", "23", "%31", "%", "+", ";", "x"}
	for i := 0; i < 5000; i++ {
		var sb strings.Builder
		for j := rng.Intn(12); j > 0; j-- {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		check(sb.String())
	}
}

// TestSemicolonQueryAnswersAsBefore pins what a ';' in the query does
// end to end: url.ParseQuery rejects the pair holding it, URL.Query
// drops that error, and the handler reports the parameters lost with
// the pair as missing.
func TestSemicolonQueryAnswersAsBefore(t *testing.T) {
	base, _ := sharedWorld(t)
	h := NewEngine(base.Clone(), Options{}).Handler()
	rec := serveOnce(h, "/route?src=1;dst=2")
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusBadRequest || body.Error != `missing query parameter "src"` {
		t.Fatalf("status %d, error %q", rec.Code, body.Error)
	}
	if rec := serveOnce(h, "/route?src=%31&dst=1+"); rec.Code != http.StatusBadRequest ||
		!strings.Contains(rec.Body.String(), `parameter \"dst\": strconv.Atoi: parsing \"1 \"`) {
		t.Fatalf("escaped query: status %d, body %s", rec.Code, rec.Body)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// reusedWriter is an in-memory ResponseWriter whose header map and body
// are cleared, not reallocated, between requests — the benchmark
// harness's shape, so what is counted is the handler's own allocation.
type reusedWriter struct {
	hdr    http.Header
	body   bytes.Buffer
	status int
}

func (w *reusedWriter) Header() http.Header         { return w.hdr }
func (w *reusedWriter) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *reusedWriter) WriteHeader(code int)        { w.status = code }
func (w *reusedWriter) reset() {
	clear(w.hdr)
	w.body.Reset()
	w.status = 0
}

// bareRequest builds a GET the way the harness does: no body, an empty
// header map, nothing parsed ahead of time.
func bareRequest(target string) *http.Request {
	u, err := url.Parse(target)
	if err != nil {
		panic(err)
	}
	return &http.Request{Method: http.MethodGet, URL: u, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header), Body: http.NoBody, Host: "test"}
}

// TestHandlerRouteHitAllocations gates what a cache hit costs through
// Engine.Handler(): the request ID, its two header values, the
// Content-Length value and the mux's bookkeeping — not the reply, the
// query or the measures.
func TestHandlerRouteHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	base, fresh := sharedWorld(t)
	h := NewEngine(base.Clone(), Options{}).Handler()
	q := queries(fresh, 1)[0]
	target := fmt.Sprintf("/route?src=%d&dst=%d", q.Src, q.Dst)
	w := &reusedWriter{hdr: make(http.Header)}
	h.ServeHTTP(w, bareRequest(target)) // the miss that fills the cache
	if w.status != http.StatusOK {
		t.Fatalf("status %d: %s", w.status, w.body.Bytes())
	}
	req := bareRequest(target)
	allocs := testing.AllocsPerRun(200, func() {
		w.reset()
		clear(req.Header)
		h.ServeHTTP(w, req)
	})
	if !bytes.Contains(w.body.Bytes(), []byte(`"cached":true`)) {
		t.Fatalf("not a cache hit: %s", w.body.Bytes())
	}
	t.Logf("cache-hit GET /route: %.1f allocations, %d-byte reply", allocs, w.body.Len())
	if allocs > 8 {
		t.Fatalf("cache-hit GET /route allocates %.1f times, want <= 8", allocs)
	}
}

func BenchmarkHandlerRouteHit(b *testing.B) {
	base, fresh := sharedWorld(b)
	h := NewEngine(base.Clone(), Options{}).Handler()
	q := queries(fresh, 1)[0]
	req := bareRequest(fmt.Sprintf("/route?src=%d&dst=%d", q.Src, q.Dst))
	w := &reusedWriter{hdr: make(http.Header)}
	h.ServeHTTP(w, req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		clear(req.Header)
		h.ServeHTTP(w, req)
	}
	b.SetBytes(int64(w.body.Len()))
}

// BenchmarkHandlerRouteMiss serves with the cache off: every request
// routes, walks its measures and encodes.
func BenchmarkHandlerRouteMiss(b *testing.B) {
	base, fresh := sharedWorld(b)
	h := NewEngine(base.Clone(), Options{CacheSize: -1}).Handler()
	qs := queries(fresh, 64)
	reqs := make([]*http.Request, len(qs))
	for i, q := range qs {
		reqs[i] = bareRequest(fmt.Sprintf("/route?src=%d&dst=%d", q.Src, q.Dst))
	}
	w := &reusedWriter{hdr: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := reqs[i%len(reqs)]
		w.reset()
		clear(req.Header)
		h.ServeHTTP(w, req)
	}
}
