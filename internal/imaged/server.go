// Package imaged is the production image-decode edge service the
// paper's gallery workload motivates (ROADMAP item 2): the
// band-scheduler batch executor wrapped in the process-level robustness
// an internet-facing decode tier needs. /decode, /transcode and /batch
// run one request pipeline (pipeline.go): begin checks the method, the
// drain and the shared knobs, then decodeParts probes the cache, admits,
// degrades and decodes each part through Executor.Decode under one
// deadline. Along that pipeline imaged adds:
//
//   - admission control and backpressure: a bounded budget of pending
//     requests AND pending body bytes; past it, requests are shed with
//     429 and a Retry-After computed from the scheduler's calibrated
//     ns/MCU rates instead of queueing without bound;
//   - deadline propagation: every request decodes under a context
//     deadline (server default, per-request override below a server
//     cap) that reaches the entropy stage's MCU-row polling and every
//     back-phase band, so a timed-out decode stops burning CPU and the
//     client gets 503 with a typed timeout body;
//   - graceful degradation: past a queue-depth watermark, /decode
//     requests that opted in (?degrade=allow) are served 1/8-scale
//     DC-only thumbnails (X-Hetjpeg-Degraded: true) — reduced fidelity
//     instead of shed;
//   - lifecycle: panic recovery (500 + logged stack, process survives),
//     /healthz liveness, /readyz readiness (false while draining or
//     under sustained overload), and graceful drain (StartDrain stops
//     intake, admitted requests finish, Close drains the executor);
//   - a decoded-output cache: finished results keyed on (content hash,
//     scale, salvage flag) in a byte-budgeted LRU with singleflight
//     collapse of concurrent identical decodes (internal/rescache). A
//     /decode or /batch hit is served BEFORE admission — it burns no
//     queue budget and cannot be shed; a /transcode hit still owes its
//     encode and is admitted. Every decoded part reports
//     X-Hetjpeg-Cache: hit|miss|wait|bypass (?cache=bypass opts out);
//   - observability: /statz stays the JSON snapshot; /metrics exposes
//     the Prometheus text format (internal/metrics) — per-scale decode
//     latency histograms, cache hit/miss/wait/eviction counters, bytes
//     resident, admission shed/degrade/timeout counters and the
//     calibrator's ns/MCU gauges.
//
// cmd/imaged is the binary. Its performance, hits and misses, is the
// service_mixed workload of the benchmark (benchmark/README.md);
// TestChaosOverload holds its overload invariants and TestStatusGolden
// its status contract.
package imaged

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"hetjpeg"
	"hetjpeg/internal/metrics"
	"hetjpeg/internal/rescache"
	"hetjpeg/internal/transcode"
)

// Config configures a Server. Every field has a serviceable default.
type Config struct {
	// Spec and Mode name a simulated machine and a schedule of the
	// paper's reproduction. The service prices no virtual time, so it
	// ignores both.
	Spec *hetjpeg.Platform
	Mode hetjpeg.Mode
	// Workers bounds decode parallelism (0 = GOMAXPROCS).
	Workers int
	// Salvage enables error-resilient decoding: corrupt-but-recoverable
	// uploads return 200 with X-Hetjpeg-Salvaged instead of 422.
	Salvage bool

	// MaxBody caps one request body (default 64 MiB). Oversized bodies
	// get 413 with a JSON error.
	MaxBody int64
	// MaxQueue caps admitted-but-unfinished requests (default
	// 4×Workers, minimum 8).
	MaxQueue int
	// MaxQueueBytes is the admission byte budget: the sum of admitted
	// request bodies (default 256 MiB). This, plus the executor's
	// in-flight decode buffers, bounds the service's input-driven RSS.
	MaxQueueBytes int64
	// CacheBytes budgets the decoded-output cache (default 256 MiB,
	// negative disables caching). Finished results are kept keyed on
	// (content hash, scale, salvage flag); a hit is served before
	// admission and concurrent identical decodes collapse to one.
	CacheBytes int64
	// RequestTimeout is the default per-request decode deadline
	// (default 15s); ?timeout= overrides it per request up to
	// MaxTimeout (default 60s).
	RequestTimeout time.Duration
	MaxTimeout     time.Duration
	// DegradeWatermark is the gate-occupancy fraction past which
	// ?degrade=allow requests are served at 1/8 scale (default 0.5).
	DegradeWatermark float64
	// OverloadAfter is how long continuous shedding must last before
	// /readyz flips not-ready (default 5s).
	OverloadAfter time.Duration
	// Log receives request and panic logs (default log.Default()).
	Log *log.Logger
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	if out.MaxBody <= 0 {
		out.MaxBody = 64 << 20
	}
	if out.MaxQueue <= 0 {
		out.MaxQueue = 4 * out.Workers
		if out.MaxQueue < 8 {
			out.MaxQueue = 8
		}
	}
	if out.MaxQueueBytes <= 0 {
		out.MaxQueueBytes = 256 << 20
	}
	if out.CacheBytes == 0 {
		out.CacheBytes = 256 << 20
	}
	if out.RequestTimeout <= 0 {
		out.RequestTimeout = 15 * time.Second
	}
	if out.MaxTimeout <= 0 {
		out.MaxTimeout = 60 * time.Second
	}
	if out.RequestTimeout > out.MaxTimeout {
		out.RequestTimeout = out.MaxTimeout
	}
	if out.DegradeWatermark <= 0 || out.DegradeWatermark > 1 {
		out.DegradeWatermark = 0.5
	}
	if out.OverloadAfter <= 0 {
		out.OverloadAfter = 5 * time.Second
	}
	if out.Log == nil {
		out.Log = log.Default()
	}
	return out
}

// Server is the imaged HTTP service: Handler() is its routing tree,
// StartDrain/Close its shutdown sequence.
type Server struct {
	cfg   Config
	ex    *hetjpeg.BatchExecutor
	gate  *gate
	cache *rescache.Cache // nil when CacheBytes < 0: every request decodes
	log   *log.Logger

	reg        *metrics.Registry
	mDecodeDur *metrics.HistogramVec
	mEncodeDur *metrics.HistogramVec

	// Transcode accounting: the learned per-class encode rates, the
	// admitted-but-unfinished transcode bytes (the subset of the gate's
	// pending bytes that still owes an encode pass), and totals.
	encRates           transcode.Rates
	transBytes         atomic.Int64
	transcodes         atomic.Uint64
	fastpathTranscodes atomic.Uint64

	draining atomic.Bool
	panics   atomic.Uint64
	timeouts atomic.Uint64
	started  time.Time
}

// New builds a Server and starts its decode executor.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ex, err := hetjpeg.NewBatchExecutor(hetjpeg.BatchOptions{
		Workers: cfg.Workers,
		Salvage: cfg.Salvage,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		ex:      ex,
		gate:    newGate(cfg.MaxQueue, cfg.MaxQueueBytes, cfg.DegradeWatermark, cfg.OverloadAfter),
		cache:   rescache.New(cfg.CacheBytes),
		log:     cfg.Log,
		started: time.Now(),
	}
	s.buildMetrics()
	// Observe each encode rate class once with a calibration encode so
	// the first 429 already prices the transcode backlog defensibly;
	// live traffic corrects it through the EWMA.
	s.encRates.Calibrate()
	return s, nil
}

// StartDrain flips the server into drain mode: /readyz goes not-ready
// and new decode requests are refused with 503, while requests already
// admitted keep decoding to completion. Call it on SIGTERM, then shut
// the HTTP server down (which waits for the in-flight handlers), then
// Close.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close shuts the decode executor down and waits for its pipeline to
// drain. Call it after the HTTP server's Shutdown returned, so no
// handler can still submit. Every decode went through Executor.Decode,
// so the Results stream carries nothing; it only closes.
func (s *Server) Close() {
	s.ex.Close()
	for range s.ex.Results() {
	}
}

// Handler returns the service's routing tree wrapped in the recovery +
// request-log middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/decode", s.handleDecode)
	mux.HandleFunc("/transcode", s.handleTranscode)
	mux.HandleFunc("/batch", s.handleBatch)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/statz", s.handleStatz)
	mux.Handle("/metrics", s.reg.Handler())
	return s.middleware(mux)
}

// decodeReply is the JSON body of every /decode response, success or
// error — clients always get a machine-readable reason.
type decodeReply struct {
	Width  int `json:"width,omitempty"`
	Height int `json:"height,omitempty"`
	// Scale is the decode scale that actually ran — "1/8" when the
	// request was degraded under overload.
	Scale        string  `json:"scale,omitempty"`
	EntropyScans int     `json:"entropyScans,omitempty"`
	WallMs       float64 `json:"wallMs,omitempty"`
	// Degraded mirrors the X-Hetjpeg-Degraded header: the service was
	// past its overload watermark and this request opted in.
	Degraded bool `json:"degraded,omitempty"`
	// Cache mirrors the X-Hetjpeg-Cache header: how the request met the
	// decoded-output cache — hit, miss, wait (an identical decode was in
	// flight and shared) or bypass (?cache=bypass, or caching disabled).
	Cache string `json:"cache,omitempty"`

	Error string `json:"error,omitempty"`
	// Unsupported distinguishes "valid JPEG, out-of-scope feature"
	// (415) from corruption (422).
	Unsupported bool `json:"unsupported,omitempty"`
	// Timeout marks a 503 caused by the request's decode deadline; the
	// effective deadline is echoed in TimeoutMs.
	Timeout   bool    `json:"timeout,omitempty"`
	TimeoutMs float64 `json:"timeoutMs,omitempty"`
	// Shed marks a 429: the admission queue was full. RetryAfterSec
	// echoes the Retry-After header.
	Shed          bool `json:"shed,omitempty"`
	RetryAfterSec int  `json:"retryAfterSec,omitempty"`
	// Draining marks a 503 from a server in shutdown drain.
	Draining bool `json:"draining,omitempty"`

	Salvaged      bool   `json:"salvaged,omitempty"`
	RecoveredMCUs int    `json:"recoveredMcus,omitempty"`
	TotalMCUs     int    `json:"totalMcus,omitempty"`
	SalvageError  string `json:"salvageError,omitempty"`
}

// writeJSON sets the headers the reply's fields mirror, then writes
// the JSON body.
func writeJSON(w http.ResponseWriter, status int, reply decodeReply) {
	if reply.Cache != "" {
		w.Header().Set("X-Hetjpeg-Cache", reply.Cache)
	}
	if reply.Degraded {
		w.Header().Set("X-Hetjpeg-Degraded", "true")
	}
	if reply.Salvaged {
		w.Header().Set("X-Hetjpeg-Salvaged", "true")
	}
	if reply.Draining {
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(reply)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, decodeReply{Error: msg})
}

// handleDecode is the single-image decode path: the shared pipeline
// over one part, plus ?degrade=allow. Status map: 200 decoded (possibly
// degraded/salvaged, see headers), 400 bad parameters, 405 bad method,
// 413 body over MaxBody, 415 not a JPEG or unsupported coding feature,
// 422 corrupt stream, 429 shed (admission queue full, Retry-After set),
// 500 the decode panicked, 503 deadline exceeded, client gone or
// draining.
func (s *Server) handleDecode(w http.ResponseWriter, r *http.Request) {
	q, ok := s.begin(w, r, "POST a JPEG body")
	if !ok {
		return
	}
	data, status, msg := readJPEGBody(w, r, s.cfg.MaxBody)
	if status != 0 {
		writeError(w, status, msg)
		return
	}
	p := &part{data: data}
	done := s.decodeParts(r, &q, []*part{p}, false, q.query.Get("degrade") == "allow")
	defer done()
	reply, code := s.replyFor(w, p, &q)
	if !p.shed {
		reply.WallMs = float64(time.Since(q.start).Microseconds()) / 1000
	}
	writeJSON(w, code, reply)
}

// replyFor converts one part's outcome — shed, fresh, cached or
// failed — into the shared reply shape and its HTTP status. A shed is
// priced from the calibrated rates and sets the Retry-After header.
func (s *Server) replyFor(w http.ResponseWriter, p *part, q *request) (decodeReply, int) {
	if p.shed {
		sec := s.retryAfterSec()
		w.Header().Set("Retry-After", strconv.Itoa(sec))
		return decodeReply{Error: "admission queue full", Shed: true, RetryAfterSec: sec}, http.StatusTooManyRequests
	}
	reply := decodeReply{
		Scale:    q.scale.String(),
		Degraded: q.degraded,
		Cache:    p.cache,
	}
	if p.res == nil {
		switch {
		case errors.Is(p.err, context.DeadlineExceeded):
			// The deadline fired while queued or mid-decode; the entropy
			// stage or a band task aborted within its polling bound.
			s.timeouts.Add(1)
			return decodeReply{
				Error:     fmt.Sprintf("decode exceeded the %v deadline", q.timeout),
				Timeout:   true,
				TimeoutMs: float64(q.timeout.Microseconds()) / 1000,
			}, http.StatusServiceUnavailable
		case errors.Is(p.err, context.Canceled):
			// The client hung up: nobody reads this reply, and it is not
			// the deadline's doing.
			return decodeReply{Error: "request cancelled by the client"}, http.StatusServiceUnavailable
		case errors.Is(p.err, hetjpeg.ErrBatchClosed):
			return decodeReply{Error: "server is draining", Draining: true}, http.StatusServiceUnavailable
		case errors.Is(p.err, errPanicked):
			return decodeReply{Error: p.err.Error()}, http.StatusInternalServerError
		case errors.Is(p.err, hetjpeg.ErrUnsupported):
			reply.Error = p.err.Error()
			reply.Unsupported = true
			return reply, http.StatusUnsupportedMediaType
		default:
			reply.Error = p.err.Error()
			return reply, http.StatusUnprocessableEntity
		}
	}
	if p.err != nil {
		// Salvaged: usable (partially gray) pixels plus ErrPartialData.
		// An image service serves that as a success, flagged for caches;
		// a cached salvage replays the same report on every hit.
		reply.Salvaged = true
		reply.SalvageError = p.err.Error()
		if rep := p.res.Salvage; rep != nil {
			reply.RecoveredMCUs = rep.RecoveredMCUs
			reply.TotalMCUs = rep.TotalMCUs
		}
	}
	reply.Width, reply.Height = p.res.Image.W, p.res.Image.H
	reply.EntropyScans = p.res.Stats.EntropyScans
	return reply, http.StatusOK
}

// timeoutFromQuery resolves the request's decode deadline: the server
// default, overridable per request (?timeout=500ms) but never above the
// server cap — a client cannot pin a worker longer than MaxTimeout.
func (s *Server) timeoutFromQuery(v string) (time.Duration, error) {
	if v == "" {
		return s.cfg.RequestTimeout, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("bad timeout %q: %w", v, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("bad timeout %q: must be positive", v)
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d, nil
}

// readJPEGBody reads the request body under the MaxBody cap, rejecting
// non-JPEG uploads from their first two bytes (no point buffering 64
// MiB of something that is not a JPEG) and mapping an overrun to 413.
// The body lands in one buffer with no final copy. It grows only as
// bytes arrive, so a client cannot reserve memory it does not send, and
// never past the declared Content-Length: a cached result pins its
// input, and with it any slack. status is 0 on success.
func readJPEGBody(w http.ResponseWriter, r *http.Request, maxBody int64) (data []byte, status int, msg string) {
	body := bufio.NewReaderSize(http.MaxBytesReader(w, r.Body, maxBody), 16)
	magic, err := body.Peek(2)
	if err != nil {
		return nil, http.StatusUnsupportedMediaType, "not a JPEG (no SOI marker in the first bytes)"
	}
	if magic[0] != 0xFF || magic[1] != 0xD8 {
		return nil, http.StatusUnsupportedMediaType, "not a JPEG (missing FF D8 SOI magic)"
	}
	data = make([]byte, 0, 512)
	for err == nil && int64(len(data)) != r.ContentLength {
		if len(data) == cap(data) {
			n := 2 * len(data)
			if r.ContentLength > int64(len(data)) && r.ContentLength < int64(n) {
				n = int(r.ContentLength)
			}
			data = append(make([]byte, 0, n), data...)
		}
		var n int
		n, err = body.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
	}
	if err != nil && err != io.EOF {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", mbe.Limit)
		}
		return nil, http.StatusBadRequest, err.Error()
	}
	return data, 0, ""
}

func (s *Server) retryAfterSec() int {
	return retryAfterSeconds(s.gate.pendingByteCount(), s.transBytes.Load(),
		s.ex.QueueStats(), s.cfg.Workers, s.encRates.Max())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// Liveness: the process serves HTTP. Decoder health is /readyz's
	// job — a panicking decode must not get the process killed when the
	// recovery middleware already contained it.
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte("{\"ok\":true}\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	switch {
	case s.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("{\"ready\":false,\"reason\":\"draining\"}\n"))
	case s.gate.overloaded(time.Now()):
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("{\"ready\":false,\"reason\":\"overloaded\"}\n"))
	default:
		_, _ = w.Write([]byte("{\"ready\":true}\n"))
	}
}

// statzReply is the /statz introspection document: the admission gate,
// the executor's queue/calibration snapshot, and service counters.
type statzReply struct {
	Gate     gateSnapshot            `json:"gate"`
	Queue    hetjpeg.BatchQueueStats `json:"queue"`
	Panics   uint64                  `json:"panics"`
	Timeouts uint64                  `json:"timeouts"`
	Draining bool                    `json:"draining"`
	UptimeMs float64                 `json:"uptimeMs"`
	Workers  int                     `json:"workers"`
	// Transcode accounting: total /transcode successes, how many rode
	// the DC-only fast path, and the encode backlog's pending bytes.
	Transcodes         uint64 `json:"transcodes"`
	FastpathTranscodes uint64 `json:"fastpathTranscodes"`
	TranscodeBytes     int64  `json:"transcodeBytes"`
}

func (s *Server) handleStatz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(statzReply{
		Gate:     s.gate.snapshot(),
		Queue:    s.ex.QueueStats(),
		Panics:   s.panics.Load(),
		Timeouts: s.timeouts.Load(),
		Draining: s.draining.Load(),
		UptimeMs: float64(time.Since(s.started).Microseconds()) / 1000,
		Workers:  s.cfg.Workers,

		Transcodes:         s.transcodes.Load(),
		FastpathTranscodes: s.fastpathTranscodes.Load(),
		TranscodeBytes:     s.transBytes.Load(),
	})
}

// statusWriter records the status code and whether a header was
// written, so the middleware can log outcomes and the panic recovery
// knows whether a 500 can still be sent.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (sw *statusWriter) WriteHeader(code int) {
	if !sw.wrote {
		sw.code = code
		sw.wrote = true
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if !sw.wrote {
		sw.code = http.StatusOK
		sw.wrote = true
	}
	return sw.ResponseWriter.Write(p)
}

// middleware wraps every handler in panic recovery and a structured
// request log line. A decoder panic becomes a 500 with the stack in the
// process log — one poisoned request must not take the service down
// with it.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler {
					// net/http's own sentinel for "abort this
					// connection"; suppressing it would break that.
					panic(p)
				}
				s.panics.Add(1)
				s.log.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError, "internal error")
				}
			}
			s.log.Printf("%s %s %d %.1fms", r.Method, r.URL.RequestURI(), sw.code, float64(time.Since(start).Microseconds())/1000)
		}()
		next.ServeHTTP(sw, r)
	})
}
