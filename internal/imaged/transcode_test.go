package imaged

// Endpoint contract of POST /transcode: a 200 is the re-encoded JPEG
// stream itself (decodable, correctly scaled, fast-path and cache
// outcomes in headers), every knob violation is a typed 400 before any
// work is admitted, and the error paths reuse /decode's status map.
// The pure Retry-After arithmetic behind its 429s is pinned in
// admission_test.go; the pipeline/byte-identity guarantees live in
// internal/transcode and internal/conformance.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"hetjpeg"
)

func postTranscode(t *testing.T, h http.Handler, query string, body []byte) (*httptest.ResponseRecorder, decodeReply) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/transcode?"+query, bytes.NewReader(body))
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

func getStatz(t *testing.T, h http.Handler) statzReply {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/statz", nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("/statz status %d", rr.Code)
	}
	var st statzReply
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("bad statz JSON: %v", err)
	}
	return st
}

// TestTranscodeOK covers the happy path end to end: a baseline input
// transcoded to a 1/8 thumbnail rides the coefficient-domain fast path,
// the body is a decodable JPEG at the scaled geometry, and a repeat
// request serves the decode from cache (same bytes, no second decode)
// while still running its own encode.
func TestTranscodeOK(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	h := s.Handler()
	data := encodeJPEG(t, 64, 48, false)

	rr, reply := postTranscode(t, h, "scale=1/8&quality=80", data)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 (error: %s)", rr.Code, reply.Error)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "image/jpeg" {
		t.Fatalf("Content-Type %q, want image/jpeg", ct)
	}
	if got := rr.Header().Get("Content-Length"); got != strconv.Itoa(rr.Body.Len()) {
		t.Errorf("Content-Length %q does not match body length %d", got, rr.Body.Len())
	}
	if rr.Header().Get("X-Hetjpeg-Cache") != "miss" {
		t.Errorf("first transcode cache outcome %q, want miss", rr.Header().Get("X-Hetjpeg-Cache"))
	}
	if rr.Header().Get("X-Hetjpeg-Fastpath") != "true" {
		t.Error("baseline 1/8 transcode did not report the DC-only fast path")
	}
	first := append([]byte(nil), rr.Body.Bytes()...)
	out, err := hetjpeg.DecodeRGB(first)
	if err != nil {
		t.Fatalf("transcoded output does not decode: %v", err)
	}
	if out.W != 8 || out.H != 6 {
		t.Errorf("output %dx%d, want 8x6", out.W, out.H)
	}

	// Repeat: decode stage resident, encode re-runs deterministically.
	rr, _ = postTranscode(t, h, "scale=1/8&quality=80", data)
	if rr.Code != http.StatusOK || rr.Header().Get("X-Hetjpeg-Cache") != "hit" {
		t.Fatalf("repeat transcode: status %d cache %q, want 200 hit", rr.Code, rr.Header().Get("X-Hetjpeg-Cache"))
	}
	if !bytes.Equal(first, rr.Body.Bytes()) {
		t.Error("cached-decode transcode produced different bytes than the first")
	}
	if st := s.cache.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("cache stats %+v, want exactly one decode and one hit", st)
	}

	st := getStatz(t, h)
	if st.Transcodes != 2 || st.FastpathTranscodes != 2 {
		t.Errorf("statz transcodes=%d fastpath=%d, want 2 and 2", st.Transcodes, st.FastpathTranscodes)
	}
	if st.TranscodeBytes != 0 {
		t.Errorf("statz transcodeBytes=%d after requests finished, want 0", st.TranscodeBytes)
	}
}

// TestTranscodeFullAndProgressive: full-scale output skips the fast
// path, and a progressive script knob produces a decodable SOF2 stream.
func TestTranscodeFullAndProgressive(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	h := s.Handler()
	data := encodeJPEG(t, 64, 48, false)

	rr, reply := postTranscode(t, h, "scale=1&quality=90", data)
	if rr.Code != http.StatusOK {
		t.Fatalf("full-scale transcode: status %d (error: %s)", rr.Code, reply.Error)
	}
	if rr.Header().Get("X-Hetjpeg-Fastpath") != "" {
		t.Error("full-scale transcode claimed the DC-only fast path")
	}
	out, err := hetjpeg.DecodeRGB(rr.Body.Bytes())
	if err != nil || out.W != 64 || out.H != 48 {
		t.Fatalf("full-scale output decode: %v (%dx%d, want 64x48)", err, out.W, out.H)
	}

	rr, reply = postTranscode(t, h, "scale=1/2&progressive=true&script=spectral", data)
	if rr.Code != http.StatusOK {
		t.Fatalf("progressive transcode: status %d (error: %s)", rr.Code, reply.Error)
	}
	out, err = hetjpeg.DecodeRGB(rr.Body.Bytes())
	if err != nil || out.W != 32 || out.H != 24 {
		t.Fatalf("progressive output decode: %v (%dx%d, want 32x24)", err, out.W, out.H)
	}
	if !bytes.Contains(rr.Body.Bytes(), []byte{0xFF, 0xC2}) {
		t.Error("progressive=true output has no SOF2 marker")
	}
}

// TestTranscodeBypassSkipsCache: ?cache=bypass transcodes must neither
// probe nor populate the decoded-output cache.
func TestTranscodeBypassSkipsCache(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	h := s.Handler()
	data := encodeJPEG(t, 32, 32, false)

	for i := 0; i < 2; i++ {
		rr, reply := postTranscode(t, h, "scale=1/2&cache=bypass", data)
		if rr.Code != http.StatusOK || rr.Header().Get("X-Hetjpeg-Cache") != "bypass" {
			t.Fatalf("bypass transcode %d: status %d cache %q (error: %s)",
				i, rr.Code, rr.Header().Get("X-Hetjpeg-Cache"), reply.Error)
		}
	}
	if st := s.cache.Stats(); st.Bypasses != 2 || st.Entries != 0 {
		t.Errorf("after bypass transcodes: %+v, want 2 bypasses and nothing resident", st)
	}
}

// TestTranscodeBadKnobs is the 400 validation table: every malformed
// knob is refused with a JSON error before the body is decoded, and the
// refusal names the offending parameter.
func TestTranscodeBadKnobs(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	h := s.Handler()
	data := encodeJPEG(t, 32, 32, false)

	cases := []struct {
		name   string
		query  string
		wantIn string
	}{
		{"unknown scale", "scale=1/3", "scale"},
		{"non-integer quality", "scale=1&quality=high", "quality"},
		{"quality above range", "scale=1&quality=101", "quality"},
		{"quality below range", "scale=1&quality=-1", "quality"},
		{"non-boolean progressive", "scale=1&progressive=maybe", "progressive"},
		{"unknown script", "scale=1&progressive=true&script=nope", "script"},
		{"script without progressive", "scale=1&script=spectral", "progressive"},
		{"bad timeout", "scale=1&timeout=fast", "timeout"},
		{"bad cache mode", "scale=1&cache=sometimes", "cache"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr, reply := postTranscode(t, h, tc.query, data)
			if rr.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (reply %+v)", rr.Code, reply)
			}
			if !strings.Contains(reply.Error, tc.wantIn) {
				t.Errorf("error %q does not mention %q", reply.Error, tc.wantIn)
			}
		})
	}
	if n := getStatz(t, h).Transcodes; n != 0 {
		t.Errorf("knob refusals counted %d transcodes, want 0", n)
	}
}

// TestTranscodeErrorPaths reuses /decode's status map: 405 bad method,
// 413 oversized, 415 not a JPEG, 422 corrupt, 503 draining.
func TestTranscodeErrorPaths(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxBody = 1 << 10
	s := newTestServer(t, cfg)
	h := s.Handler()
	data := encodeJPEG(t, 64, 48, false)

	req := httptest.NewRequest(http.MethodGet, "/transcode", nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /transcode: status %d, want 405", rr.Code)
	}

	oversized := append([]byte{0xFF, 0xD8}, make([]byte, 2<<10)...)
	if rr, _ := postTranscode(t, h, "scale=1", oversized); rr.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", rr.Code)
	}
	if rr, _ := postTranscode(t, h, "scale=1", []byte("not a jpeg at all")); rr.Code != http.StatusUnsupportedMediaType {
		t.Errorf("non-JPEG body: status %d, want 415", rr.Code)
	}
	if rr, _ := postTranscode(t, h, "scale=1", data[:len(data)/2]); rr.Code != http.StatusUnprocessableEntity {
		t.Errorf("truncated JPEG: status %d, want 422", rr.Code)
	}

	s.StartDrain()
	rr2, reply := postTranscode(t, h, "scale=1", data)
	if rr2.Code != http.StatusServiceUnavailable || !reply.Draining {
		t.Errorf("draining transcode: status %d draining=%v, want 503 true", rr2.Code, reply.Draining)
	}
	if rr2.Header().Get("Retry-After") == "" {
		t.Error("draining transcode missing Retry-After")
	}
}

// TestTranscodeShedsWithMixedRetryAfter fills the admission gate and
// verifies /transcode sheds with a 429 whose Retry-After is present —
// the encode-aware pricing itself is pinned in admission_test.go.
func TestTranscodeShedsWithMixedRetryAfter(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxQueue = 1
	s := newTestServer(t, cfg)
	h := s.Handler()
	data := encodeJPEG(t, 32, 32, false)

	if !s.gate.admit(1) {
		t.Fatal("setup admit refused")
	}
	defer s.gate.release(1)

	rr, reply := postTranscode(t, h, "scale=1/2", data)
	if rr.Code != http.StatusTooManyRequests || !reply.Shed {
		t.Fatalf("transcode through a full gate: status %d shed=%v, want 429 true", rr.Code, reply.Shed)
	}
	if reply.RetryAfterSec < 1 || rr.Header().Get("Retry-After") == "" {
		t.Errorf("shed transcode Retry-After %d / header %q, want >=1s both",
			reply.RetryAfterSec, rr.Header().Get("Retry-After"))
	}
	if n := getStatz(t, h).Transcodes; n != 0 {
		t.Errorf("shed request counted %d transcodes, want 0", n)
	}
}

// TestDegradedDecodePopulatesOwnKey covers the degrade × cache
// interaction on /decode: a degraded (forced 1/8) decode is cached
// under the scale that actually ran, so it seeds later explicit 1/8
// requests and never poisons the full-scale key.
func TestDegradedDecodePopulatesOwnKey(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxQueue = 4
	s := newTestServer(t, cfg)
	h := s.Handler()
	data := encodeJPEG(t, 128, 64, false)

	for i := 0; i < 2; i++ {
		if !s.gate.admit(1) {
			t.Fatal("setup admit refused")
		}
		defer s.gate.release(1)
	}
	if snap := s.gate.snapshot(); 2*snap.Pending < snap.MaxRequests {
		t.Fatalf("gate not past its 0.5 watermark after setup: %+v", snap)
	}

	rr, reply := postDecode(t, h, "degrade=allow", data)
	if rr.Code != http.StatusOK || !reply.Degraded || reply.Cache != "miss" {
		t.Fatalf("degraded decode: status %d degraded=%v cache=%q, want 200 true miss", rr.Code, reply.Degraded, reply.Cache)
	}

	// The degraded result lives under the 1/8 key: an explicit 1/8
	// request hits without a second decode...
	rr, reply = postDecode(t, h, "scale=1/8", data)
	if rr.Code != http.StatusOK || reply.Cache != "hit" || reply.Width != 16 {
		t.Errorf("explicit 1/8 after degrade: status %d cache=%q width=%d, want 200 hit 16", rr.Code, reply.Cache, reply.Width)
	}
	// ...and the full-scale key is untouched: a full request decodes
	// fresh at full fidelity (no longer degraded — it doesn't opt in).
	rr, reply = postDecode(t, h, "", data)
	if rr.Code != http.StatusOK || reply.Cache != "miss" || reply.Width != 128 || reply.Degraded {
		t.Errorf("full decode after degrade: status %d cache=%q width=%d degraded=%v, want 200 miss 128 false",
			rr.Code, reply.Cache, reply.Width, reply.Degraded)
	}
	if st := s.cache.Stats(); st.Misses != 2 {
		t.Errorf("cache ran %d decodes, want 2 (degraded 1/8 + full)", st.Misses)
	}
}

// TestBatchMalformedPartHeaders sends multipart bodies whose framing is
// intact enough to reach the part reader but whose part headers or
// termination are broken: the whole batch must be refused with 400, not
// partially processed or hung.
func TestBatchMalformedPartHeaders(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	h := s.Handler()

	post := func(body, boundary string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(body))
		req.Header.Set("Content-Type", "multipart/form-data; boundary="+boundary)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		return rr
	}

	// A part header line with no colon is not a MIME header.
	rr := post("--B\r\nThis Is Not A Header Line\r\n\r\ndata\r\n--B--\r\n", "B")
	if rr.Code != http.StatusBadRequest {
		t.Errorf("colonless part header: status %d, want 400", rr.Code)
	}

	// Body framed with a different boundary than the Content-Type
	// declares: no parts are ever found.
	rr = post("--OTHER\r\nContent-Disposition: form-data; name=\"a\"\r\n\r\ndata\r\n--OTHER--\r\n", "B")
	if rr.Code != http.StatusBadRequest {
		t.Errorf("mismatched boundary: status %d, want 400", rr.Code)
	}

	// Valid opening part but the stream ends mid-part with no closing
	// boundary.
	rr = post("--B\r\nContent-Disposition: form-data; name=\"a\"\r\n\r\n\xFF\xD8truncat", "B")
	if rr.Code != http.StatusBadRequest {
		t.Errorf("unterminated part: status %d, want 400", rr.Code)
	}

	// Content-Type header present but empty boundary parameter.
	req := httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader("--\r\n"))
	req.Header.Set("Content-Type", "multipart/form-data; boundary=")
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusBadRequest {
		t.Errorf("empty boundary: status %d, want 400", rr.Code)
	}
}
