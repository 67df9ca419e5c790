package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/serve"
	"repro/internal/traj"
)

// result is what a client keeps of one operation: how long the call
// took, a hash of the answer, and whether the answer was acceptable.
type result struct {
	ns  int64
	sum uint64
	ok  bool
}

// client issues the operations of one op list against one engine. The
// clock runs around the call into the system only; checking and
// hashing the answer happen after it stops.
type client interface {
	do(o op) result
}

// validWalk reports whether p is a contiguous s→d walk on the road
// network. full walks every hop; otherwise only the endpoints are
// compared (passes after the first: their answers must hash like the
// first pass's, which was walked).
func validWalk(road *roadnet.Graph, p roadnet.Path, q od, full bool) bool {
	if len(p) < 2 || p[0] != q.s || p[len(p)-1] != q.d {
		return false
	}
	return !full || p.Valid(road)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashPath(h uint64, p roadnet.Path) uint64 {
	for _, v := range p {
		h = (h ^ uint64(uint32(v))) * fnvPrime
	}
	return (h ^ 0xff) * fnvPrime // path separator
}

func hashInts(vs ...int) uint64 {
	h := uint64(fnvOffset)
	for _, v := range vs {
		h = (h ^ uint64(v)) * fnvPrime
	}
	return h
}

// apiClient drives the engine's Go API.
type apiClient struct {
	wd   *world
	e    *serve.Engine
	full bool
}

func (c *apiClient) do(o op) result {
	switch o.kind {
	case opIngest:
		batch := c.wd.batches[o.arg]
		before := c.e.Generation()
		t0 := time.Now()
		st, gen := c.e.IngestMatched(batch)
		ns := int64(time.Since(t0))
		return result{ns, hashInts(st.Paths, len(st.TouchedEdges), st.Relearned, int(gen)),
			st.Paths == len(batch) && gen == before+1}
	case opAlt:
		q := c.wd.pool[o.arg]
		t0 := time.Now()
		res, _ := c.e.RouteK(q.s, q.d, altK)
		ns := int64(time.Since(t0))
		return c.checked(ns, q, res)
	default:
		q := c.wd.pool[o.arg]
		t0 := time.Now()
		res, _ := c.e.Route(q.s, q.d)
		ns := int64(time.Since(t0))
		return result{ns, hashPath(fnvOffset, res.Path), validWalk(c.wd.road, res.Path, q, c.full)}
	}
}

func (c *apiClient) checked(ns int64, q od, res []core.RouteResult) result {
	r := result{ns: ns, sum: fnvOffset, ok: len(res) > 0}
	for _, x := range res {
		r.sum = hashPath(r.sum, x.Path)
		r.ok = r.ok && validWalk(c.wd.road, x.Path, q, c.full)
	}
	return r
}

// recorder is a reusable in-memory http.ResponseWriter: the handler's
// own work is measured, not a socket's.
type recorder struct {
	hdr    http.Header
	body   bytes.Buffer
	status int
}

func newRecorder() *recorder { return &recorder{hdr: make(http.Header)} }

func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }
func (r *recorder) WriteHeader(code int)        { r.status = code }
func (r *recorder) reset() {
	clear(r.hdr)
	r.body.Reset()
	r.status = http.StatusOK
}

// handlerClient drives Engine.Handler().ServeHTTP in-process. Requests
// are built before the pass so the measured window holds the handler's
// allocations and none of the harness's.
type handlerClient struct {
	wd   *world
	h    http.Handler
	rec  *recorder
	reqs []*http.Request
	next int
	gen  uint64 // generation the last accepted ingest published
	full bool
}

func newHandlerClient(wd *world, e *serve.Engine, ops []op, full bool) *handlerClient {
	c := &handlerClient{wd: wd, h: e.Handler(), rec: newRecorder(), gen: e.Generation(), full: full}
	c.reqs = make([]*http.Request, len(ops))
	for i, o := range ops {
		c.reqs[i] = wd.request(o)
	}
	return c
}

// request builds the HTTP request of one op.
func (wd *world) request(o op) *http.Request {
	req := &http.Request{
		Method: http.MethodGet, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header), Body: http.NoBody, Host: "bench",
	}
	switch o.kind {
	case opIngest:
		req.Method = http.MethodPost
		req.URL = &url.URL{Path: "/ingest"}
		body := ingestBody(wd.batches[o.arg])
		req.Body = readCloser{bytes.NewReader(body)}
		req.ContentLength = int64(len(body))
	default:
		q := wd.pool[o.arg]
		req.URL = &url.URL{Path: "/route", RawQuery: "src=" + strconv.Itoa(int(q.s)) + "&dst=" + strconv.Itoa(int(q.d))}
		if o.kind == opAlt {
			req.URL.Path = "/route/alternatives"
			req.URL.RawQuery += "&k=" + strconv.Itoa(altK)
		}
	}
	return req
}

type readCloser struct{ *bytes.Reader }

func (readCloser) Close() error { return nil }

func ingestBody(batch []*traj.Trajectory) []byte {
	paths := make([][]int, len(batch))
	for i, t := range batch {
		paths[i] = make([]int, len(t.Truth))
		for j, v := range t.Truth {
			paths[i][j] = int(v)
		}
	}
	b, err := json.Marshal(map[string][][]int{"paths": paths})
	if err != nil {
		panic(fmt.Sprintf("encoding an ingest body: %v", err)) // ints always encode
	}
	return b
}

// routeReply and ingestReply are the fields of the handler's replies
// the harness checks.
type routeReply struct {
	Routes []struct {
		Path []int32 `json:"path"`
	} `json:"routes"`
}

type ingestReply struct {
	Paths      int    `json:"paths"`
	Touched    int    `json:"touched_edges"`
	Relearned  int    `json:"relearned"`
	Generation uint64 `json:"generation"`
	Durable    bool   `json:"durable"`
}

func (c *handlerClient) do(o op) result {
	req := c.nextRequest()
	t0 := time.Now()
	c.h.ServeHTTP(c.rec, req)
	return c.check(o, int64(time.Since(t0)))
}

// nextRequest clears the recorder and returns the next op's request.
func (c *handlerClient) nextRequest() *http.Request {
	req := c.reqs[c.next]
	c.next++
	c.rec.reset()
	return req
}

// check judges and hashes the reply the handler left in the recorder.
func (c *handlerClient) check(o op, ns int64) result {
	body := c.rec.body.Bytes()
	if c.rec.status != http.StatusOK {
		return result{ns: ns}
	}
	if o.kind == opIngest {
		// The reply carries elapsed_ms, so hash its fields, not its bytes.
		var rep ingestReply
		if err := json.Unmarshal(body, &rep); err != nil {
			return result{ns: ns}
		}
		ok := rep.Durable && rep.Paths == len(c.wd.batches[o.arg]) && rep.Generation == c.gen+1
		c.gen = rep.Generation
		return result{ns, hashInts(rep.Paths, rep.Touched, rep.Relearned, int(rep.Generation)), ok}
	}
	h := fnv.New64a()
	h.Write(body)
	r := result{ns: ns, sum: h.Sum64(), ok: true}
	if c.full {
		var rep routeReply
		if err := json.Unmarshal(body, &rep); err != nil || len(rep.Routes) == 0 {
			return result{ns: ns, sum: r.sum}
		}
		for _, rt := range rep.Routes {
			p := make(roadnet.Path, len(rt.Path))
			for i, v := range rt.Path {
				p[i] = roadnet.VertexID(v)
			}
			r.ok = r.ok && validWalk(c.wd.road, p, c.wd.pool[o.arg], true)
		}
	}
	return r
}
