package imaged

// Service-level contract of the decoded-output cache: hits are served
// ahead of admission (a full gate cannot shed them), every response
// names its cache outcome in X-Hetjpeg-Cache, ?cache=bypass opts out,
// and the /batch path applies the same discipline per part with
// intra-batch singleflight while each part keeps its own status.

import (
	"bytes"
	"encoding/json"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"testing"

	"hetjpeg"
)

type namedPart struct {
	name string
	data []byte
}

// batchBody encodes parts as a multipart/form-data /batch body and
// returns it with its Content-Type.
func batchBody(t *testing.T, parts []namedPart) ([]byte, string) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, p := range parts {
		fw, err := mw.CreateFormFile(p.name, p.name+".jpg")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Write(p.data); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), mw.FormDataContentType()
}

func postBatch(t *testing.T, h http.Handler, query string, parts []namedPart) (*httptest.ResponseRecorder, batchReply) {
	t.Helper()
	body, contentType := batchBody(t, parts)
	req := httptest.NewRequest(http.MethodPost, "/batch?"+query, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	var reply batchReply
	if rr.Code == http.StatusOK {
		if err := json.Unmarshal(rr.Body.Bytes(), &reply); err != nil {
			t.Fatalf("bad batch JSON: %v\n%s", err, rr.Body.String())
		}
	}
	return rr, reply
}

func TestCacheHitHeaderAndReplay(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	h := s.Handler()
	data := encodeJPEG(t, 64, 48, false)

	rr, first := postDecode(t, h, "scale=1/2", data)
	if rr.Code != http.StatusOK || rr.Header().Get("X-Hetjpeg-Cache") != "miss" {
		t.Fatalf("first request: status %d cache %q, want 200 miss", rr.Code, rr.Header().Get("X-Hetjpeg-Cache"))
	}
	rr, second := postDecode(t, h, "scale=1/2", data)
	if rr.Code != http.StatusOK || rr.Header().Get("X-Hetjpeg-Cache") != "hit" {
		t.Fatalf("repeat request: status %d cache %q, want 200 hit", rr.Code, rr.Header().Get("X-Hetjpeg-Cache"))
	}
	if second.Cache != "hit" || first.Cache != "miss" {
		t.Errorf("reply cache fields %q/%q, want miss/hit", first.Cache, second.Cache)
	}
	if second.Width != first.Width || second.Height != first.Height {
		t.Errorf("hit replayed %dx%d, want %dx%d", second.Width, second.Height, first.Width, first.Height)
	}
	// A different scale of the same bytes is a different resource.
	rr, _ = postDecode(t, h, "scale=1/4", data)
	if rr.Header().Get("X-Hetjpeg-Cache") != "miss" {
		t.Errorf("different scale served %q, want miss", rr.Header().Get("X-Hetjpeg-Cache"))
	}
	if st := s.cache.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Errorf("cache stats %+v, want 1 hit / 2 misses", st)
	}
}

func TestCacheHitSkipsAdmission(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxQueue = 2
	s := newTestServer(t, cfg)
	h := s.Handler()
	hot := encodeJPEG(t, 64, 48, false)
	cold := encodeJPEG(t, 48, 64, false)

	if rr, _ := postDecode(t, h, "", hot); rr.Code != http.StatusOK {
		t.Fatalf("warm-up decode: status %d", rr.Code)
	}
	// Fill the gate completely: every slot taken, nothing admissible.
	for i := 0; i < cfg.MaxQueue; i++ {
		if !s.gate.admit(1) {
			t.Fatal("setup admit refused")
		}
		defer s.gate.release(1)
	}
	// Fresh work is shed...
	rr, reply := postDecode(t, h, "", cold)
	if rr.Code != http.StatusTooManyRequests || !reply.Shed {
		t.Fatalf("cold request through a full gate: status %d, want 429", rr.Code)
	}
	admittedBefore := s.gate.snapshot().Admitted
	// ...but the resident result is served without touching the gate.
	rr, reply = postDecode(t, h, "", hot)
	if rr.Code != http.StatusOK || rr.Header().Get("X-Hetjpeg-Cache") != "hit" {
		t.Fatalf("hot request through a full gate: status %d cache %q, want 200 hit", rr.Code, rr.Header().Get("X-Hetjpeg-Cache"))
	}
	if reply.Shed {
		t.Error("cache hit marked shed")
	}
	if snap := s.gate.snapshot(); snap.Admitted != admittedBefore {
		t.Errorf("cache hit consumed an admission slot (admitted %d -> %d)", admittedBefore, snap.Admitted)
	}
}

func TestCacheBypassAndDisabled(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	h := s.Handler()
	data := encodeJPEG(t, 32, 32, false)

	for i := 0; i < 2; i++ {
		rr, _ := postDecode(t, h, "cache=bypass", data)
		if rr.Code != http.StatusOK || rr.Header().Get("X-Hetjpeg-Cache") != "bypass" {
			t.Fatalf("bypass request %d: status %d cache %q", i, rr.Code, rr.Header().Get("X-Hetjpeg-Cache"))
		}
	}
	if st := s.cache.Stats(); st.Bypasses != 2 || st.Entries != 0 {
		t.Errorf("after bypasses: %+v, want 2 bypasses and nothing resident", st)
	}
	// A bypassed decode must not have populated the cache.
	if rr, _ := postDecode(t, h, "", data); rr.Header().Get("X-Hetjpeg-Cache") != "miss" {
		t.Error("bypass populated the cache")
	}

	rr, reply := postDecode(t, h, "cache=nope", data)
	if rr.Code != http.StatusBadRequest || reply.Error == "" {
		t.Errorf("cache=nope: status %d, want 400 with error", rr.Code)
	}

	// CacheBytes < 0 disables caching outright: every request reports
	// bypass and repeats decode again.
	cfg := testConfig(t)
	cfg.CacheBytes = -1
	s2 := newTestServer(t, cfg)
	h2 := s2.Handler()
	for i := 0; i < 2; i++ {
		rr, _ := postDecode(t, h2, "", data)
		if rr.Code != http.StatusOK || rr.Header().Get("X-Hetjpeg-Cache") != "bypass" {
			t.Fatalf("disabled cache request %d: status %d cache %q, want 200 bypass", i, rr.Code, rr.Header().Get("X-Hetjpeg-Cache"))
		}
	}
}

// twelveBitJPEG flips the SOF0 precision byte to 12 bits: a valid JPEG
// with an out-of-scope feature, the ErrUnsupported class.
func twelveBitJPEG(t *testing.T) []byte {
	t.Helper()
	data := encodeJPEG(t, 64, 48, false)
	i := bytes.Index(data, []byte{0xFF, 0xC0})
	if i < 0 {
		t.Fatal("no SOF0 marker")
	}
	data[i+4] = 12
	return data
}

// truncatedRestartJPEG cuts a restart-interval stream inside its
// entropy data: strict decoding fails, salvage recovers a partial image.
func truncatedRestartJPEG(t *testing.T) []byte {
	t.Helper()
	img := hetjpeg.NewImage(160, 128)
	for y := 0; y < 128; y++ {
		for x := 0; x < 160; x++ {
			img.Set(x, y, byte(x*2), byte(y*2), byte(x+y))
		}
	}
	data, err := hetjpeg.Encode(img, hetjpeg.EncodeOptions{Quality: 85, Subsampling: hetjpeg.Sub420, RestartInterval: 4})
	if err != nil {
		t.Fatal(err)
	}
	return data[:len(data)*3/4]
}

func TestBatchDecodesAndCollapsesDuplicates(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	h := s.Handler()
	a := encodeJPEG(t, 64, 48, false)
	b := encodeJPEG(t, 48, 64, false)

	rr, reply := postBatch(t, h, "scale=1/2", []namedPart{
		{"a1", a}, {"a2", a}, {"b", b}, {"junk", []byte("not a jpeg")},
	})
	if rr.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rr.Code, rr.Body.String())
	}
	if reply.Count != 4 || reply.OK != 3 || reply.Errors != 1 || reply.Shed != 0 {
		t.Fatalf("batch summary %+v, want count=4 ok=3 errors=1", reply)
	}
	if reply.Items[3].Status != http.StatusUnsupportedMediaType {
		t.Errorf("non-JPEG part status %d, want 415", reply.Items[3].Status)
	}
	for i := 0; i < 2; i++ {
		it := reply.Items[i]
		if it.Status != http.StatusOK || it.Width != 32 || it.Height != 24 {
			t.Errorf("part %d: status %d %dx%d, want 200 32x24", i, it.Status, it.Width, it.Height)
		}
	}
	if reply.Items[2].Width != 24 || reply.Items[2].Height != 32 {
		t.Errorf("part b decoded %dx%d, want 24x32", reply.Items[2].Width, reply.Items[2].Height)
	}
	// The identical parts collapsed: exactly one of them led the decode,
	// the other shared it (wait while in flight, hit if it landed after).
	outcomes := map[string]int{reply.Items[0].Cache: 1}
	outcomes[reply.Items[1].Cache]++
	if outcomes["miss"] != 1 || outcomes["wait"]+outcomes["hit"] != 1 {
		t.Errorf("duplicate parts reported %v, want one miss plus one wait/hit", outcomes)
	}
	if st := s.cache.Stats(); st.Misses != 2 {
		t.Errorf("cache ran %d decodes for the batch, want 2 (a once, b once)", st.Misses)
	}

	// Same batch again: everything resident, zero new decodes.
	_, reply = postBatch(t, h, "scale=1/2", []namedPart{{"a1", a}, {"a2", a}, {"b", b}})
	for i, it := range reply.Items {
		if it.Cache != "hit" {
			t.Errorf("repeat batch part %d outcome %q, want hit", i, it.Cache)
		}
	}
	if st := s.cache.Stats(); st.Misses != 2 {
		t.Errorf("repeat batch re-decoded: %d misses, want still 2", st.Misses)
	}
}

// TestBatchIsolatesUnsupportedPart: the unsupported sentinel survives
// every wrap down to a 12-bit part's own status, without failing its
// sibling.
func TestBatchIsolatesUnsupportedPart(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	rr, reply := postBatch(t, s.Handler(), "", []namedPart{
		{"good", encodeJPEG(t, 64, 48, false)}, {"twelve", twelveBitJPEG(t)},
	})
	if rr.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rr.Code, rr.Body.String())
	}
	if reply.Count != 2 || reply.OK != 1 || reply.Errors != 1 {
		t.Fatalf("batch summary %+v, want count=2 ok=1 errors=1", reply)
	}
	if it := reply.Items[0]; it.Status != http.StatusOK {
		t.Errorf("sibling part: status %d, want 200", it.Status)
	}
	if it := reply.Items[1]; it.Status != http.StatusUnsupportedMediaType || !it.Unsupported {
		t.Errorf("12-bit part: status %d unsupported %v, want 415 true", it.Status, it.Unsupported)
	}
}

// TestBatchSalvagesTruncatedPart: with salvage on, a truncated
// restart-interval part comes back 200 with a strict partial recovery,
// and its clean sibling is not marked salvaged.
func TestBatchSalvagesTruncatedPart(t *testing.T) {
	cfg := testConfig(t)
	cfg.Salvage = true
	s := newTestServer(t, cfg)
	rr, reply := postBatch(t, s.Handler(), "", []namedPart{
		{"good", encodeJPEG(t, 64, 48, false)}, {"hurt", truncatedRestartJPEG(t)},
	})
	if rr.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rr.Code, rr.Body.String())
	}
	if reply.Count != 2 || reply.OK != 2 || reply.Salvaged != 1 || reply.Errors != 0 {
		t.Fatalf("batch summary %+v, want count=2 ok=2 salvaged=1 errors=0", reply)
	}
	if it := reply.Items[0]; it.Status != http.StatusOK || it.Salvaged {
		t.Errorf("clean part misreported: %+v", it)
	}
	if it := reply.Items[1]; it.Status != http.StatusOK || !it.Salvaged || it.SalvageError == "" ||
		it.Width != 160 || it.RecoveredMCUs <= 0 || it.RecoveredMCUs >= it.TotalMCUs {
		t.Errorf("truncated restart-interval part: %+v, want 200 salvaged 160 wide with 0 < recoveredMcus < totalMcus", it)
	}
}

func TestBatchShedSparesResidentParts(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxQueue = 2
	s := newTestServer(t, cfg)
	h := s.Handler()
	hot := encodeJPEG(t, 64, 48, false)
	cold := encodeJPEG(t, 48, 64, false)

	if rr, _ := postDecode(t, h, "", hot); rr.Code != http.StatusOK {
		t.Fatalf("warm-up decode: status %d", rr.Code)
	}
	for i := 0; i < cfg.MaxQueue; i++ {
		if !s.gate.admit(1) {
			t.Fatal("setup admit refused")
		}
		defer s.gate.release(1)
	}

	rr, reply := postBatch(t, h, "", []namedPart{{"hot", hot}, {"cold", cold}})
	if rr.Code != http.StatusOK {
		t.Fatalf("batch status %d", rr.Code)
	}
	if reply.OK != 1 || reply.Shed != 1 {
		t.Fatalf("batch through a full gate: %+v, want the resident part served and the fresh one shed", reply)
	}
	if it := reply.Items[0]; it.Status != http.StatusOK || it.Cache != "hit" {
		t.Errorf("resident part: status %d cache %q, want 200 hit", it.Status, it.Cache)
	}
	if it := reply.Items[1]; it.Status != http.StatusTooManyRequests || !it.Shed || it.RetryAfterSec < 1 {
		t.Errorf("fresh part: %+v, want 429 shed with Retry-After", it)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("shed batch missing Retry-After header")
	}
}

func TestBatchRejectsMalformed(t *testing.T) {
	s := newTestServer(t, testConfig(t))
	h := s.Handler()

	// Not multipart at all.
	req := httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(encodeJPEG(t, 16, 16, false)))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusBadRequest {
		t.Errorf("raw body to /batch: status %d, want 400", rr.Code)
	}

	// Empty batch.
	rr, _ = postBatch(t, h, "", nil)
	if rr.Code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", rr.Code)
	}

	// Wrong method.
	req = httptest.NewRequest(http.MethodGet, "/batch", nil)
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /batch: status %d, want 405", rr.Code)
	}
}
