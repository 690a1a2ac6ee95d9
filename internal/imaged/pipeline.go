package imaged

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"runtime/debug"
	"sync"
	"time"

	"hetjpeg"
	"hetjpeg/internal/rescache"
)

// request is what begin parsed from a request, plus the degrade
// decision decodeParts made for it.
type request struct {
	start   time.Time
	query   url.Values
	scale   hetjpeg.Scale
	timeout time.Duration
	// bypass keeps the cache out of the path (?cache=bypass, or caching
	// disabled): the request neither hashes, probes nor inserts.
	bypass bool
	// degraded records that the request runs at 1/8 scale under
	// overload; scale then says 1/8.
	degraded bool
}

// part is one JPEG of a request and what the pipeline made of it.
type part struct {
	data []byte
	key  rescache.Key // set when the cache is in the path
	// res and err are the decode outcome: a nil res is a failure
	// classified by err, and both are set for a salvaged decode. cache
	// is the X-Hetjpeg-Cache outcome; release hands res back.
	res     *hetjpeg.Result
	err     error
	cache   string
	release func()
	// shed marks a part the gate refused; it replies 429 even when a
	// cache hit set res.
	shed bool
}

// errPanicked fails a part whose decode panicked: the part replies 500
// and the rest of its request is unaffected.
var errPanicked = errors.New("internal error")

// begin runs the checks every decode endpoint makes before reading its
// body: POST only (methodMsg is the 405's text), 503 while draining,
// then ?scale=, ?timeout= and ?cache=. On a refusal it has written the
// reply and ok is false.
func (s *Server) begin(w http.ResponseWriter, r *http.Request, methodMsg string) (q request, ok bool) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, methodMsg)
		return q, false
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, decodeReply{Error: "server is draining", Draining: true})
		return q, false
	}
	q = request{start: time.Now(), query: r.URL.Query()}
	if q.scale, ok = hetjpeg.ParseScale(q.query.Get("scale")); !ok {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown scale %q (want 1, 1/2, 1/4 or 1/8)", q.query.Get("scale")))
		return q, false
	}
	var err error
	if q.timeout, err = s.timeoutFromQuery(q.query.Get("timeout")); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return q, false
	}
	switch v := q.query.Get("cache"); v {
	case "", "use":
		q.bypass = s.cache == nil
	case "bypass":
		q.bypass = true
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown cache mode %q (want bypass)", v))
		return q, false
	}
	return q, true
}

// decodeParts runs the stages after the body over a request's parts
// (one for /decode and /transcode, N for /batch); the endpoint supplies
// only its knobs, its body reader and its reply:
//
//   - probe: a resident part is a hit, served without decoding;
//   - admit: the parts that owe work take one reservation of their
//     summed bytes, or are all shed. A miss owes a decode; with encode
//     set a hit owes work too (/transcode re-encodes it), and the
//     reservation is also charged to the encode backlog that prices
//     Retry-After;
//   - degrade: with degrade set (/decode's ?degrade=allow, one part),
//     past the watermark the request drops to 1/8 scale;
//   - deadline and decode: the misses decode concurrently under one
//     deadline, through the cache's singleflight unless bypassing. A
//     panic fails only its own part, with errPanicked.
//
// Call done once the reply no longer needs the results: it releases
// every part and the reservation.
func (s *Server) decodeParts(r *http.Request, q *request, parts []*part, encode, degrade bool) (done func()) {
	var misses, owing []*part
	var n int64
	for _, p := range parts {
		if q.bypass {
			s.cache.NoteBypass()
		} else {
			p.key = rescache.KeyFor(p.data, q.scale, s.cfg.Salvage)
			if ent := s.cache.Get(p.key); ent != nil {
				p.res, p.err, p.cache, p.release = ent.Result(), ent.Err(), "hit", ent.Release
			}
		}
		if p.res == nil {
			misses = append(misses, p)
		}
		if p.res == nil || encode {
			owing = append(owing, p)
			n += int64(len(p.data))
		}
	}
	admitted := len(owing) > 0 && s.gate.admit(n)
	if admitted && encode {
		s.transBytes.Add(n)
	}
	done = func() {
		for _, p := range parts {
			if p.release != nil {
				p.release()
			}
		}
		if admitted {
			s.gate.release(n)
			if encode {
				s.transBytes.Add(-n)
			}
		}
	}
	if !admitted {
		for _, p := range owing {
			p.shed = true
		}
		return done
	}

	// Degrade only what still decodes; its cache key follows the scale
	// that actually runs.
	if degrade && q.scale != hetjpeg.Scale8 && s.gate.pastWatermarkExcluding(n) {
		q.scale, q.degraded = hetjpeg.Scale8, true
		s.gate.noteDegraded()
		for _, p := range misses {
			p.key.Scale = hetjpeg.Scale8
		}
	}

	if len(misses) == 0 {
		return done
	}
	ctx, cancel := context.WithTimeout(r.Context(), q.timeout)
	defer cancel()
	var wg sync.WaitGroup
	for _, p := range misses {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Outside the middleware's stack: contain the panic to this
			// part, logged and counted as the middleware would.
			defer func() {
				if v := recover(); v != nil {
					s.panics.Add(1)
					s.log.Printf("panic decoding a %s part: %v\n%s", r.URL.Path, v, debug.Stack())
					p.res, p.err = nil, errPanicked
				}
			}()
			// A nil result is a failure classified by the error; a
			// salvage sets both. Only pixels feed the latency histogram.
			decode := func() (*hetjpeg.Result, error) {
				t0 := time.Now()
				ir, err := s.ex.Decode(ctx, p.data, q.scale)
				if err != nil { // never submitted: deadline while queued, or executor closed
					return nil, err
				}
				if ir.Res != nil {
					s.mDecodeDur.With(q.scale.String()).Observe(time.Since(t0).Seconds())
				}
				return ir.Res, ir.Err
			}
			if q.bypass {
				p.cache = "bypass"
				if p.res, p.err = decode(); p.res != nil {
					p.release = p.res.Release
				}
				return
			}
			ent, st, err := s.cache.Do(ctx, p.key, decode)
			p.cache, p.err = st.String(), err
			if ent != nil {
				p.res, p.release = ent.Result(), ent.Release
			}
		}()
	}
	wg.Wait()
	return done
}
