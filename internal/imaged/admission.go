package imaged

import (
	"sync"
	"time"
)

// gate is the admission controller in front of the decode executor: a
// bounded budget of pending requests and pending body bytes. A request
// holds its reservation from admission until its response is written,
// so the service's memory for buffered JPEG input is bounded by
// maxBytes no matter how hard clients push — requests beyond either
// budget are shed immediately (HTTP 429 upstream) instead of queueing
// without bound.
//
// The gate also derives the two softer overload signals: the degrade
// watermark (occupancy past which opted-in requests are served
// 1/8-scale thumbnails) and sustained overload (shedding with no
// admission for overloadAfter, which flips /readyz not-ready so a load
// balancer stops routing here).
type gate struct {
	maxRequests   int
	maxBytes      int64
	watermarkFrac float64
	overloadAfter time.Duration

	mu           sync.Mutex
	pending      int
	pendingBytes int64
	// shedStreak is when continuous shedding began (zero while the gate
	// is admitting): an admission resets it, a shed only starts it.
	shedStreak time.Time

	admitted uint64
	shed     uint64
	degraded uint64
}

func newGate(maxRequests int, maxBytes int64, watermarkFrac float64, overloadAfter time.Duration) *gate {
	return &gate{
		maxRequests:   maxRequests,
		maxBytes:      maxBytes,
		watermarkFrac: watermarkFrac,
		overloadAfter: overloadAfter,
	}
}

// admit reserves one request slot and n body bytes; false means shed.
func (g *gate) admit(n int64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.pending+1 > g.maxRequests || g.pendingBytes+n > g.maxBytes {
		g.shed++
		if g.shedStreak.IsZero() {
			g.shedStreak = time.Now()
		}
		return false
	}
	g.pending++
	g.pendingBytes += n
	g.admitted++
	g.shedStreak = time.Time{}
	return true
}

// release returns a reservation taken by admit.
func (g *gate) release(n int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.pending--
	g.pendingBytes -= n
}

// pendingByteCount reports the bytes currently held by admitted
// requests — the queue the Retry-After estimate prices out.
func (g *gate) pendingByteCount() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.pendingBytes
}

// pastWatermarkExcluding reports whether occupancy (requests or bytes)
// crossed the degrade watermark fraction of its budget, as seen by an
// admitted request deciding whether to degrade itself: its own
// reservation (one slot, n bytes) is excluded, so a lone request on an
// idle server never counts itself as queue pressure.
func (g *gate) pastWatermarkExcluding(n int64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return float64(g.pending-1) >= g.watermarkFrac*float64(g.maxRequests) ||
		float64(g.pendingBytes-n) >= g.watermarkFrac*float64(g.maxBytes)
}

// noteDegraded counts one request served at 1/8 scale under overload.
func (g *gate) noteDegraded() {
	g.mu.Lock()
	g.degraded++
	g.mu.Unlock()
}

// overloaded reports sustained overload: the gate has been shedding
// with no successful admission for at least overloadAfter.
func (g *gate) overloaded(now time.Time) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return !g.shedStreak.IsZero() && now.Sub(g.shedStreak) >= g.overloadAfter
}

// gateSnapshot is the /statz view of the gate.
type gateSnapshot struct {
	Pending       int    `json:"pending"`
	PendingBytes  int64  `json:"pendingBytes"`
	MaxRequests   int    `json:"maxRequests"`
	MaxQueueBytes int64  `json:"maxQueueBytes"`
	Admitted      uint64 `json:"admitted"`
	Shed          uint64 `json:"shed"`
	Degraded      uint64 `json:"degraded"`
}

func (g *gate) snapshot() gateSnapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	return gateSnapshot{
		Pending:       g.pending,
		PendingBytes:  g.pendingBytes,
		MaxRequests:   g.maxRequests,
		MaxQueueBytes: g.maxBytes,
		Admitted:      g.admitted,
		Shed:          g.shed,
		Degraded:      g.degraded,
	}
}
