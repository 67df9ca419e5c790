package obs

import (
	"sync/atomic"
	"time"
)

// Now is the clock the tracer and internal/quality's shadow scorer
// read: time.Now behind one seam, so that a test can count the reads a
// route makes with tracing and sampling off — none.
func Now() time.Time {
	if hook := clockHook.Load(); hook != nil {
		(*hook)()
	}
	return time.Now()
}

// clockHook, when set, runs on every Now; only tests set it.
var clockHook atomic.Pointer[func()]
