package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the layer's public function. Parent is the span that
// caused it (-1 for a root) and Op the operation both belong to. Times are
// nanoseconds since the recorder started.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Count is the work the call did, where the layer reports it: the
	// entropy bits a decode consumed.
	Count int64 `json:"count,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layerOf maps a span name such as "jpegcodec.entropy" to its layer, the
// module name in front of the dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// recorder keeps spans in memory; the benchmark writes them out when the
// traced pass ends. A nil recorder records nothing, which is how the
// untraced windows run the same code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, op int32) int32 {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: time.Since(r.t0).Nanoseconds()})
	return id
}

// end closes a span and returns its duration in nanoseconds.
func (r *recorder) end(id int32) int64 {
	if r == nil {
		return 0
	}
	end := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = end
	d := end - r.spans[id].Start
	r.mu.Unlock()
	return d
}

// count attaches the amount of work done to a span.
func (r *recorder) count(id int32, n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[id].Count = n
	r.mu.Unlock()
}

// add records a span whose times were taken elsewhere (client-side
// request stamps).
func (r *recorder) add(name string, parent, op int32, start, end time.Time) int32 {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	return id
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover. Children may overlap one
// another (parallel parts), so the covered part is the union of their
// intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}
