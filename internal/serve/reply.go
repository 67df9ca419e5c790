package serve

import (
	"math"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/roadnet"
)

// maxAlternatives is the largest k GET /route/alternatives accepts.
const maxAlternatives = 16

// replyBufs holds the buffers route replies are encoded into. A reply
// is a few hundred bytes, so a fresh buffer (the pool empties at every
// GC) starts at a size that fits one without regrowing, and a buffer
// that grew far past that is dropped rather than pinned in the pool.
var replyBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 1<<10)
	return &b
}}

const maxPooledReply = 64 << 10

// writeRouteReply answers a /route or /route/alternatives request with
// res: it encodes the body into a pooled buffer, sets Content-Length and
// writes once. Results that come without measures (nil meas: an engine
// without a cache) are walked here, on road. A non-finite measure — a path with a
// hop that is no edge — cannot be written as JSON; it is answered 500
// before any header goes out.
func writeRouteReply(w http.ResponseWriter, road *roadnet.Graph, s, d roadnet.VertexID, res []core.RouteResult, meas []measure, cached bool, gen uint64) {
	if meas == nil {
		var walked [maxAlternatives]measure
		meas = appendMeasures(walked[:0], road, res)
	}
	for _, m := range meas {
		if !finite(m.lengthM) || !finite(m.travelTimeS) {
			WriteError(w, http.StatusInternalServerError, "route from %d to %d is not a walk on the road network", s, d)
			return
		}
	}
	bp := replyBufs.Get().(*[]byte)
	b := appendRouteReply((*bp)[:0], s, d, res, meas, cached, gen)
	h := w.Header()
	setJSONHeaders(h)
	h["Content-Length"] = []string{strconv.Itoa(len(b))}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b) // a failed write is the client's departure; nothing to report to
	if cap(b) <= maxPooledReply {
		*bp = b
		replyBufs.Put(bp)
	}
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// appendRouteReply appends the compact JSON body of a route reply to b
// and returns the extended buffer:
//
//	{"routes":[{"source":S,"destination":D,"path":[v0,...],
//	  "length_m":L,"travel_time_s":T,"category":"...","evidence":"...",
//	  "used_region_path":B,"region_path":[r0,...]}, ...],
//	 "cached":B,"generation":G}
//
// region_path is omitted when empty. Keys, key order and number
// formatting are what encoding/json gives the same fields; meas[i]
// belongs to res[i] and must be finite.
func appendRouteReply(b []byte, s, d roadnet.VertexID, res []core.RouteResult, meas []measure, cached bool, gen uint64) []byte {
	b = append(b, `{"routes":[`...)
	for i := range res {
		r := &res[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"source":`...)
		b = strconv.AppendInt(b, int64(s), 10)
		b = append(b, `,"destination":`...)
		b = strconv.AppendInt(b, int64(d), 10)
		b = append(b, `,"path":[`...)
		for j, v := range r.Path {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, `],"length_m":`...)
		b = appendJSONFloat(b, meas[i].lengthM)
		b = append(b, `,"travel_time_s":`...)
		b = appendJSONFloat(b, meas[i].travelTimeS)
		// Category and Evidence labels are fixed ASCII identifiers:
		// nothing in them needs a JSON escape.
		b = append(b, `,"category":"`...)
		b = append(b, r.Category.String()...)
		b = append(b, `","evidence":"`...)
		b = append(b, r.Evidence.String()...)
		b = append(b, `","used_region_path":`...)
		b = strconv.AppendBool(b, r.UsedRegionPath)
		if len(r.RegionPath) > 0 {
			b = append(b, `,"region_path":[`...)
			for j, id := range r.RegionPath {
				if j > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, int64(id), 10)
			}
			b = append(b, ']')
		}
		b = append(b, '}')
	}
	b = append(b, `],"cached":`...)
	b = strconv.AppendBool(b, cached)
	b = append(b, `,"generation":`...)
	b = strconv.AppendUint(b, gen, 10)
	return append(b, "}\n"...)
}

// appendJSONFloat appends a finite f the way encoding/json writes a
// float64: shortest round-trip digits, exponent form only below 1e-6 or
// from 1e21 up, and a two-digit negative exponent trimmed of its zero
// (1e-07 is written 1e-7).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
