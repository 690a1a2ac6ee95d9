package imaged

// Robustness contract of the imaged service, request by request: shed
// with honest Retry-After at the admission budget, degrade opted-in
// requests past the watermark, abort timed-out decodes mid-stream,
// survive handler panics, and report readiness truthfully while
// draining or overloaded. The drain test (real listener, zero dropped
// responses) lives in drain_test.go.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"hetjpeg"
)

func testConfig(t *testing.T) Config {
	t.Helper()
	spec := hetjpeg.PlatformByName("GTX 560")
	if spec == nil {
		t.Fatal("platform GTX 560 missing")
	}
	return Config{
		Spec:    spec,
		Mode:    hetjpeg.ModePipelinedGPU,
		Workers: 2,
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Log == nil {
		cfg.Log = discardLogger()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// encodeJPEG builds a decodable fixture; detail raises the coded bit
// count (and so decode time) without changing dimensions.
func encodeJPEG(t *testing.T, w, h int, detail bool) []byte {
	t.Helper()
	img := hetjpeg.NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if detail {
				v := byte((x*2654435761 + y*40503) >> 3)
				img.Set(x, y, v, v^0x5A, byte(x*y))
			} else {
				img.Set(x, y, byte(x), byte(y), byte(x+y))
			}
		}
	}
	data, err := hetjpeg.Encode(img, hetjpeg.EncodeOptions{Quality: 90, Subsampling: hetjpeg.Sub422})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func postDecode(t *testing.T, h http.Handler, query string, body []byte) (*httptest.ResponseRecorder, decodeReply) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/decode?"+query, bytes.NewReader(body))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	var reply decodeReply
	if rr.Header().Get("Content-Type") == "application/json" {
		if err := json.Unmarshal(rr.Body.Bytes(), &reply); err != nil {
			t.Fatalf("bad JSON reply: %v\n%s", err, rr.Body.String())
		}
	}
	return rr, reply
}

func TestDecodeOK(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	h := s.Handler()
	rr, reply := postDecode(t, h, "scale=1/2", encodeJPEG(t, 64, 48, false))
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (error: %s)", rr.Code, reply.Error)
	}
	if reply.Width != 32 || reply.Height != 24 {
		t.Errorf("scaled decode %dx%d, want 32x24", reply.Width, reply.Height)
	}
	if reply.Scale != "1/2" || reply.Degraded {
		t.Errorf("reply scale %q degraded %v, want 1/2, false", reply.Scale, reply.Degraded)
	}
}

func TestRejectsNonJPEGMagic(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	h := s.Handler()
	for name, body := range map[string][]byte{
		"png":   []byte("\x89PNG\r\n\x1a\nxxxxxxxx"),
		"text":  []byte("hello, not an image"),
		"empty": nil,
		"one":   {0xFF},
	} {
		rr, reply := postDecode(t, h, "", body)
		if rr.Code != http.StatusUnsupportedMediaType {
			t.Errorf("%s body: status = %d, want 415", name, rr.Code)
		}
		if reply.Error == "" {
			t.Errorf("%s body: 415 without a JSON error", name)
		}
	}
}

func TestOversizedBodyIs413JSON(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxBody = 1 << 10
	s := newTestServer(t, cfg)
	rr, reply := postDecode(t, s.Handler(), "", encodeJPEG(t, 256, 256, true))
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", rr.Code)
	}
	if reply.Error == "" {
		t.Error("413 without a JSON error body")
	}
}

// TestReadJPEGBodyOneTightBuffer: a body of declared length is read
// into one buffer no larger than that length needs (a cached result
// pins its input, slack included), a body of unknown length reads in
// full, and an overrun is a 413 either way.
func TestReadJPEGBodyOneTightBuffer(t *testing.T) {
	body := append([]byte{0xFF, 0xD8}, bytes.Repeat([]byte{7}, 100_000)...)
	read := func(contentLength, maxBody int64) ([]byte, int) {
		req := httptest.NewRequest(http.MethodPost, "/decode", bytes.NewReader(body))
		req.ContentLength = contentLength
		data, status, _ := readJPEGBody(httptest.NewRecorder(), req, maxBody)
		return data, status
	}
	for _, cl := range []int64{int64(len(body)), -1} {
		data, status := read(cl, 1<<20)
		if status != 0 || !bytes.Equal(data, body) {
			t.Fatalf("Content-Length %d: status %d, %d bytes read, want 0 and the %d-byte body", cl, status, len(data), len(body))
		}
		if slack := cap(data) - len(data); cl >= 0 && slack >= 8<<10 {
			t.Errorf("declared-length body kept %d bytes of slack, want under one 8 KiB page", slack)
		}
		if _, status := read(cl, 50_000); status != http.StatusRequestEntityTooLarge {
			t.Errorf("Content-Length %d over MaxBody: status %d, want 413", cl, status)
		}
	}
}

func TestBadParamsAre400(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	h := s.Handler()
	data := encodeJPEG(t, 32, 32, false)
	for _, q := range []string{"scale=1/3", "timeout=fast", "timeout=-2s"} {
		if rr, _ := postDecode(t, h, q, data); rr.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", q, rr.Code)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/decode", nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /decode: status = %d, want 405", rr.Code)
	}
}

func TestUnsupportedIs415CorruptIs422(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	h := s.Handler()
	data := encodeJPEG(t, 64, 48, false)
	i := bytes.Index(data, []byte{0xFF, 0xC0})
	if i < 0 {
		t.Fatal("no SOF0 marker")
	}
	twelveBit := append([]byte(nil), data...)
	twelveBit[i+4] = 12
	rr, reply := postDecode(t, h, "", twelveBit)
	if rr.Code != http.StatusUnsupportedMediaType || !reply.Unsupported {
		t.Errorf("12-bit JPEG: status %d unsupported %v, want 415 true", rr.Code, reply.Unsupported)
	}
	rr, reply = postDecode(t, h, "", data[:len(data)/2])
	if rr.Code != http.StatusUnprocessableEntity {
		t.Errorf("truncated JPEG: status = %d, want 422 (reply %+v)", rr.Code, reply)
	}
}

// TestOverloadSheds floods a 2-slot admission gate: every request gets a
// complete response, the overflow gets 429 with a Retry-After of at
// least a second, and nothing deadlocks.
func TestOverloadSheds(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxQueue = 2
	s := newTestServer(t, cfg)
	h := s.Handler()
	data := encodeJPEG(t, 512, 512, true)

	const clients = 16
	codes := make([]int, clients)
	retryAfter := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Identical bodies would collapse into cache hits served
			// ahead of admission; shedding is what's under test here.
			rr, _ := postDecode(t, h, "cache=bypass", data)
			codes[i] = rr.Code
			retryAfter[i] = rr.Header().Get("Retry-After")
		}(i)
	}
	wg.Wait()

	ok, shed := 0, 0
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			sec, err := strconv.Atoi(retryAfter[i])
			if err != nil || sec < 1 || sec > 60 {
				t.Errorf("shed request %d: Retry-After %q, want integer in [1,60]", i, retryAfter[i])
			}
		default:
			t.Errorf("request %d: status %d, want 200 or 429", i, c)
		}
	}
	if ok == 0 {
		t.Error("no request succeeded under overload")
	}
	if shed == 0 {
		t.Error("16 clients through a 2-slot gate and nothing was shed")
	}
	if snap := s.gate.snapshot(); snap.Pending != 0 || snap.PendingBytes != 0 {
		t.Errorf("gate not drained after load: %+v", snap)
	}
}

// TestDegradedUnderPressure pins the gate past its watermark and checks
// an opted-in request completes at 1/8 scale with the degraded header,
// while a non-opted request still decodes at full fidelity.
func TestDegradedUnderPressure(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxQueue = 4
	s := newTestServer(t, cfg)
	h := s.Handler()
	data := encodeJPEG(t, 128, 64, false)
	// Every request bypasses the cache: a resident full-fidelity result
	// would be served ahead of admission and short-circuit the very
	// degradation under test.
	rr, reply := postDecode(t, h, "degrade=allow&cache=bypass", data)
	// Idle server: a lone opted-in request must NOT count its own
	// admission as queue pressure and degrade itself.
	if rr.Code != http.StatusOK || reply.Degraded || reply.Width != 128 {
		t.Fatalf("idle degrade=allow: status %d degraded=%v width=%d, want full-fidelity 200", rr.Code, reply.Degraded, reply.Width)
	}
	// Occupy half the gate directly: the default 0.5 watermark is crossed.
	for i := 0; i < 2; i++ {
		if !s.gate.admit(1) {
			t.Fatal("setup admit refused")
		}
		defer s.gate.release(1)
	}
	if snap := s.gate.snapshot(); 2*snap.Pending < snap.MaxRequests {
		t.Fatalf("gate not past its 0.5 watermark after setup: %+v", snap)
	}

	rr, reply = postDecode(t, h, "degrade=allow&cache=bypass", data)
	if rr.Code != http.StatusOK {
		t.Fatalf("degraded request: status %d (error: %s)", rr.Code, reply.Error)
	}
	if rr.Header().Get("X-Hetjpeg-Degraded") != "true" || !reply.Degraded {
		t.Error("degraded request missing X-Hetjpeg-Degraded marker")
	}
	if reply.Scale != "1/8" || reply.Width != 16 || reply.Height != 8 {
		t.Errorf("degraded decode scale %q %dx%d, want 1/8 16x8", reply.Scale, reply.Width, reply.Height)
	}

	rr, reply = postDecode(t, h, "cache=bypass", data)
	if rr.Code != http.StatusOK || reply.Degraded || reply.Width != 128 {
		t.Errorf("non-opted request got %d degraded=%v width=%d, want full-fidelity 200", rr.Code, reply.Degraded, reply.Width)
	}
}

// TestDeadlineAborts decodes a large detailed image under a deadline it
// cannot meet: the response must be a typed 503 timeout, and the decode
// machinery must have been cancelled (not left running to completion).
func TestDeadlineAborts(t *testing.T) {
	cfg := testConfig(t)
	cfg.RequestTimeout = time.Millisecond
	s := newTestServer(t, cfg)
	h := s.Handler()
	data := encodeJPEG(t, 2048, 2048, true)

	rr, reply := postDecode(t, h, "", data)
	if rr.Code != http.StatusServiceUnavailable || !reply.Timeout {
		t.Fatalf("status %d timeout %v, want 503 true (reply %+v)", rr.Code, reply.Timeout, reply)
	}
	if s.timeouts.Load() == 0 {
		t.Error("timeout counter not incremented")
	}
	// Per-request override: a generous ?timeout= on the same image
	// succeeds, proving the 503 above came from the deadline.
	rr, reply = postDecode(t, h, "timeout=30s", data)
	if rr.Code != http.StatusOK {
		t.Fatalf("override timeout: status %d (error: %s)", rr.Code, reply.Error)
	}
}

// TestClientHangupIsNotATimeout: a request whose client is already gone
// fails the decode with context.Canceled, which is not the deadline's
// doing — no timeout flag, no timeout count.
func TestClientHangupIsNotATimeout(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/decode", bytes.NewReader(encodeJPEG(t, 64, 48, false))).WithContext(ctx)
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	var reply decodeReply
	if err := json.Unmarshal(rr.Body.Bytes(), &reply); err != nil {
		t.Fatalf("bad JSON reply: %v\n%s", err, rr.Body.String())
	}
	if rr.Code != http.StatusServiceUnavailable || reply.Timeout || reply.Error == "" {
		t.Errorf("hung-up request: status %d timeout %v error %q, want 503 false with an error", rr.Code, reply.Timeout, reply.Error)
	}
	if n := s.timeouts.Load(); n != 0 {
		t.Errorf("hetjpeg_decode_timeouts_total = %d after a client hang-up, want 0", n)
	}
}

// TestTimeoutOverrideCapped proves a client cannot outbid the server's
// MaxTimeout: a huge ?timeout= is clamped and the decode still dies.
func TestTimeoutOverrideCapped(t *testing.T) {
	cfg := testConfig(t)
	cfg.RequestTimeout = time.Millisecond
	cfg.MaxTimeout = 2 * time.Millisecond
	s := newTestServer(t, cfg)
	rr, reply := postDecode(t, s.Handler(), "timeout=10m", encodeJPEG(t, 2048, 2048, true))
	if rr.Code != http.StatusServiceUnavailable || !reply.Timeout {
		t.Fatalf("capped timeout: status %d timeout %v, want 503 true", rr.Code, reply.Timeout)
	}
	if reply.TimeoutMs > 3 {
		t.Errorf("effective deadline %.1fms, want capped at 2ms", reply.TimeoutMs)
	}
}

// corruptRestartJPEG encodes with restart markers, so a mid-stream
// corruption is recoverable, then zeroes bytes in the middle of the
// entropy data.
func corruptRestartJPEG(t *testing.T) []byte {
	t.Helper()
	img := hetjpeg.NewImage(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			img.Set(x, y, byte(x*7+y*13), byte(x^y), byte(x+y))
		}
	}
	data, err := hetjpeg.Encode(img, hetjpeg.EncodeOptions{Quality: 85, Subsampling: hetjpeg.Sub422, RestartInterval: 4})
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte{0xFF, 0xDA})
	if i < 0 {
		t.Fatal("no SOS marker")
	}
	mid := i + (len(data)-i)/2
	for j := 0; j < 16; j++ {
		data[mid+j] = 0x00
	}
	return data
}

func TestSalvagedDecode(t *testing.T) {
	cfg := testConfig(t)
	cfg.Salvage = true
	s := newTestServer(t, cfg)
	rr, reply := postDecode(t, s.Handler(), "", corruptRestartJPEG(t))
	if rr.Code == http.StatusOK && rr.Header().Get("X-Hetjpeg-Salvaged") == "true" {
		if reply.TotalMCUs == 0 || reply.RecoveredMCUs >= reply.TotalMCUs {
			t.Errorf("salvage accounting %d/%d MCUs implausible", reply.RecoveredMCUs, reply.TotalMCUs)
		}
	} else if rr.Code != http.StatusUnprocessableEntity && rr.Code != http.StatusOK {
		// Corruption at an arbitrary offset may or may not be
		// salvageable; both 200-salvaged and 422 are contract-clean.
		t.Errorf("corrupt restart-interval stream: status %d, want 200-salvaged or 422", rr.Code)
	}
}

func TestHealthzReadyzStatz(t *testing.T) {
	cfg := testConfig(t)
	cfg.OverloadAfter = time.Millisecond
	s := newTestServer(t, cfg)
	h := s.Handler()

	get := func(path string) (*httptest.ResponseRecorder, map[string]any) {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		var m map[string]any
		_ = json.Unmarshal(rr.Body.Bytes(), &m)
		return rr, m
	}

	if rr, m := get("/healthz"); rr.Code != http.StatusOK || m["ok"] != true {
		t.Errorf("healthz: %d %v", rr.Code, m)
	}
	if rr, m := get("/readyz"); rr.Code != http.StatusOK || m["ready"] != true {
		t.Errorf("fresh readyz: %d %v", rr.Code, m)
	}

	// Sustained overload: fill the gate, shed once, wait out the window.
	for i := 0; i < s.cfg.MaxQueue; i++ {
		if !s.gate.admit(1) {
			t.Fatal("setup admit refused")
		}
	}
	if s.gate.admit(1) {
		t.Fatal("gate admitted past its budget")
	}
	time.Sleep(5 * time.Millisecond)
	if rr, m := get("/readyz"); rr.Code != http.StatusServiceUnavailable || m["reason"] != "overloaded" {
		t.Errorf("overloaded readyz: %d %v, want 503 overloaded", rr.Code, m)
	}
	// Recovery: release and admit again — readiness returns.
	for i := 0; i < s.cfg.MaxQueue; i++ {
		s.gate.release(1)
	}
	if !s.gate.admit(1) {
		t.Fatal("recovered gate refused")
	}
	s.gate.release(1)
	if rr, _ := get("/readyz"); rr.Code != http.StatusOK {
		t.Errorf("recovered readyz: %d, want 200", rr.Code)
	}

	if rr, m := get("/statz"); rr.Code != http.StatusOK || m["gate"] == nil || m["queue"] == nil {
		t.Errorf("statz: %d %v", rr.Code, m)
	}

	s.StartDrain()
	if rr, m := get("/readyz"); rr.Code != http.StatusServiceUnavailable || m["reason"] != "draining" {
		t.Errorf("draining readyz: %d %v, want 503 draining", rr.Code, m)
	}
	if rr, reply := postDecode(t, h, "", encodeJPEG(t, 32, 32, false)); rr.Code != http.StatusServiceUnavailable || !reply.Draining {
		t.Errorf("decode while draining: %d draining=%v, want 503 true", rr.Code, reply.Draining)
	}
}

// TestPanicRecovery proves one poisoned request cannot take the process
// down: the middleware answers 500, logs, counts — and net/http's own
// ErrAbortHandler sentinel passes through untouched.
func TestPanicRecovery(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	boom := s.middleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("decoder bug")
	}))
	rr := httptest.NewRecorder()
	boom.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/decode", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Errorf("panicking handler: status %d, want 500", rr.Code)
	}
	var reply decodeReply
	if err := json.Unmarshal(rr.Body.Bytes(), &reply); err != nil || reply.Error == "" {
		t.Errorf("500 body not a JSON error: %q", rr.Body.String())
	}
	if s.panics.Load() != 1 {
		t.Errorf("panic counter = %d, want 1", s.panics.Load())
	}

	abort := s.middleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	recovered := func() (v any) {
		defer func() { v = recover() }()
		abort.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
		return nil
	}()
	if !errors.Is(recovered.(error), http.ErrAbortHandler) {
		t.Errorf("ErrAbortHandler was swallowed: %v", recovered)
	}
	if s.panics.Load() != 1 {
		t.Errorf("ErrAbortHandler counted as a service panic (count %d)", s.panics.Load())
	}
}

func TestRetryAfterFromCalibratedRates(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	// Cold server: no observations yet, the fallback is 1 second.
	if sec := s.retryAfterSec(); sec != 1 {
		t.Errorf("cold retryAfterSec = %d, want 1", sec)
	}
	// Warm the calibrator with a real decode, then price a deep queue.
	if rr, reply := postDecode(t, s.Handler(), "", encodeJPEG(t, 256, 256, true)); rr.Code != http.StatusOK {
		t.Fatalf("warmup decode: %d (%s)", rr.Code, reply.Error)
	}
	st := s.ex.QueueStats()
	if st.BytesPerMCU <= 0 || st.EntropyNsPerMCU <= 0 {
		t.Fatalf("calibrator has no rates after a decode: %+v", st)
	}
	s.gate.admit(1 << 30) // a pretend gigabyte of queued JPEG bytes
	defer s.gate.release(1 << 30)
	sec := s.retryAfterSec()
	if sec < 1 || sec > 60 {
		t.Errorf("warm retryAfterSec = %d, want within [1,60]", sec)
	}
}

func discardLogger() *log.Logger { return log.New(io.Discard, "", 0) }
