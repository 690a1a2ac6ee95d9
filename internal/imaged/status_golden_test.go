package imaged

// Golden test for the status contract of /decode, /transcode and /batch:
// every endpoint meets a bad method, each bad knob, each kind of body
// (good, 12-bit, truncated, PNG, empty, one byte, oversized, corrupt
// entropy data behind restart markers with salvage off and on), and the
// server states that change a reply: a full gate, a gate past the
// degrade watermark, and a drain. Each response is one line of
// testdata/status.golden: the status, the X-Hetjpeg-*, Content-Type
// and Retry-After headers, and the normalised JSON body or the SHA-256
// of a JPEG body. Only what varies between runs is normalised: wall
// time, the Retry-After price, and which of two identical /batch parts
// led the shared decode. Regenerate with:
//
//	go test ./internal/imaged -run TestStatusGolden -update

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// goldenMaxBody is small enough that the oversized body stays cheap and
// large enough for every other fixture.
const goldenMaxBody = 16 << 10

// statusBody is one request body the golden sends to every endpoint.
type statusBody struct {
	name string
	data []byte
}

func TestStatusGolden(t *testing.T) {
	good := encodeJPEG(t, 64, 48, false)
	other := encodeJPEG(t, 48, 64, false)
	bodies := []statusBody{
		{"good", good},
		{"twelve-bit", twelveBitJPEG(t)},
		{"truncated", good[:len(good)/2]},
		{"png", []byte("\x89PNG\r\n\x1a\nxxxxxxxx")},
		{"empty", nil},
		{"one-byte", []byte{0xFF}},
		{"oversized", append([]byte{0xFF, 0xD8}, make([]byte, 2*goldenMaxBody)...)},
		{"corrupt-restart", corruptRestartJPEG(t)},
	}
	badKnobs := map[string][]string{
		"/decode": {"scale=1/3", "timeout=fast", "timeout=-2s", "cache=nope"},
		"/transcode": {"scale=1/3", "timeout=fast", "timeout=-2s", "cache=nope",
			"quality=high", "quality=101", "quality=-1", "progressive=maybe",
			"progressive=true&script=nope", "script=spectral",
			// Two faults at once: the reply names one of them.
			"quality=x&timeout=fast"},
		"/batch": {"scale=1/3", "timeout=fast", "timeout=-2s", "cache=nope"},
	}
	endpoints := []string{"/decode", "/transcode", "/batch"}

	var out strings.Builder
	g := &statusGolden{t: t, out: &out}

	// Strict server, empty cache: every shape of request once, then the
	// cache-dependent ones again.
	s := g.server("strict", Config{MaxBody: goldenMaxBody})
	for _, ep := range endpoints {
		g.send(s, http.MethodGet, ep, nil)
		for _, q := range badKnobs[ep] {
			g.send(s, http.MethodPost, ep+"?"+q, []statusBody{{"good", good}})
		}
	}
	for _, ep := range endpoints {
		for _, b := range bodies {
			g.send(s, http.MethodPost, ep, []statusBody{b})
		}
	}
	g.send(s, http.MethodPost, "/decode?scale=1/2&cache=bypass", []statusBody{{"good", good}})
	g.send(s, http.MethodPost, "/transcode?scale=1/8&quality=80", []statusBody{{"good", good}})
	g.send(s, http.MethodPost, "/transcode?scale=1/8&quality=80", []statusBody{{"good", good}})
	g.send(s, http.MethodPost, "/transcode?scale=1/2&progressive=true&script=spectral&cache=bypass", []statusBody{{"good", good}})
	g.send(s, http.MethodPost, "/batch?scale=1/4", []statusBody{
		{"dup", other}, {"dup", other}, {"good", good}, {"twelve-bit", bodies[1].data}, {"png", bodies[3].data},
	})
	g.send(s, http.MethodPost, "/batch?scale=1/4&cache=bypass", []statusBody{{"good", good}, {"other", other}})
	g.line(s, "POST /batch raw image/jpeg", http.MethodPost, "/batch", "image/jpeg", good)

	// Salvage on: the corrupt restart-interval body recovers.
	s = g.server("salvage", Config{MaxBody: goldenMaxBody, Salvage: true})
	for _, ep := range endpoints {
		g.send(s, http.MethodPost, ep, []statusBody{{"corrupt-restart", bodies[7].data}})
		g.send(s, http.MethodPost, ep, []statusBody{{"truncated", bodies[2].data}})
	}

	// Full gate: resident /decode and /batch parts are still served, a
	// resident /transcode still owes its encode and is shed.
	s = g.server("gate-full", Config{MaxBody: goldenMaxBody, MaxQueue: 2})
	g.send(s, http.MethodPost, "/decode", []statusBody{{"good", good}})
	for i := 0; i < 2; i++ {
		if !s.gate.admit(1) {
			t.Fatal("setup admit refused")
		}
		defer s.gate.release(1)
	}
	g.send(s, http.MethodPost, "/decode", []statusBody{{"good", good}})
	g.send(s, http.MethodPost, "/decode", []statusBody{{"other", other}})
	g.send(s, http.MethodPost, "/decode?cache=bypass", []statusBody{{"good", good}})
	g.send(s, http.MethodPost, "/transcode", []statusBody{{"good", good}})
	g.send(s, http.MethodPost, "/transcode", []statusBody{{"other", other}})
	g.send(s, http.MethodPost, "/batch", []statusBody{{"good", good}, {"other", other}, {"png", bodies[3].data}})
	g.send(s, http.MethodPost, "/batch", []statusBody{{"good", good}})

	// Past the degrade watermark: only an opted-in /decode miss drops to
	// 1/8, under the 1/8 key.
	s = g.server("watermark", Config{MaxBody: goldenMaxBody, MaxQueue: 4})
	g.send(s, http.MethodPost, "/decode", []statusBody{{"other", other}})
	for i := 0; i < 2; i++ {
		if !s.gate.admit(1) {
			t.Fatal("setup admit refused")
		}
		defer s.gate.release(1)
	}
	g.send(s, http.MethodPost, "/decode?degrade=allow", []statusBody{{"good", good}})
	g.send(s, http.MethodPost, "/decode?scale=1/8", []statusBody{{"good", good}})
	g.send(s, http.MethodPost, "/decode?degrade=allow", []statusBody{{"other", other}})
	g.send(s, http.MethodPost, "/decode?degrade=allow&scale=1/2&cache=bypass", []statusBody{{"good", good}})
	g.send(s, http.MethodPost, "/decode?scale=1/2&cache=bypass", []statusBody{{"good", good}})
	g.send(s, http.MethodPost, "/transcode?degrade=allow&scale=1/2", []statusBody{{"good", good}})
	g.send(s, http.MethodPost, "/batch?degrade=allow&scale=1/2", []statusBody{{"good", good}})

	// Draining: the method check still comes first, then the drain
	// refusal, ahead of the knobs and the body.
	s = g.server("draining", Config{MaxBody: goldenMaxBody})
	s.StartDrain()
	for _, ep := range endpoints {
		g.send(s, http.MethodGet, ep, nil)
		g.send(s, http.MethodPost, ep, []statusBody{{"good", good}})
		g.send(s, http.MethodPost, ep+"?scale=1/3", []statusBody{{"png", bodies[3].data}})
	}

	got := out.String()
	golden := filepath.Join("testdata", "status.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("status contract drifted from %s (regenerate with -update if intended):\n%s",
			golden, diffLines(string(want), got))
	}
}

// statusGolden renders responses into golden lines, each prefixed by
// the server state it was sent in.
type statusGolden struct {
	t     *testing.T
	out   *strings.Builder
	state string
}

func (g *statusGolden) server(state string, cfg Config) *Server {
	g.state = state
	base := testConfig(g.t)
	cfg.Spec, cfg.Mode, cfg.Workers = base.Spec, base.Mode, base.Workers
	return newTestServer(g.t, cfg)
}

// send posts parts as the endpoint's body: the one part's bytes for
// /decode and /transcode, a multipart form for /batch.
func (g *statusGolden) send(s *Server, method, target string, parts []statusBody) {
	g.t.Helper()
	names := make([]string, len(parts))
	for i, p := range parts {
		names[i] = p.name
	}
	label := fmt.Sprintf("%s %s [%s]", method, target, strings.Join(names, ","))
	var body []byte
	contentType := "image/jpeg"
	switch {
	case strings.HasPrefix(target, "/batch") && len(parts) > 0:
		np := make([]namedPart, len(parts))
		for i, p := range parts {
			np[i] = namedPart{p.name, p.data}
		}
		body, contentType = batchBody(g.t, np)
	case len(parts) == 1:
		body = parts[0].data
	}
	g.line(s, label, method, target, contentType, body)
}

// line sends one request and appends its golden line.
func (g *statusGolden) line(s *Server, label, method, target, contentType string, body []byte) {
	g.t.Helper()
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	if method == http.MethodPost {
		req.Header.Set("Content-Type", contentType)
	}
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)

	var keys []string
	for k := range rr.Header() {
		if strings.HasPrefix(k, "X-Hetjpeg-") || k == "Content-Type" || k == "Retry-After" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	hdrs := make([]string, len(keys))
	for i, k := range keys {
		v := rr.Header().Get(k)
		if k == "Retry-After" {
			v = "N"
		}
		hdrs[i] = k + "=" + v
	}
	fmt.Fprintf(g.out, "%s | %s -> %d {%s} %s\n", g.state, label, rr.Code, strings.Join(hdrs, " "), g.body(rr))
}

// body renders a JPEG reply as its SHA-256 and a JSON reply with its
// run-dependent values replaced.
func (g *statusGolden) body(rr *httptest.ResponseRecorder) string {
	if rr.Header().Get("Content-Type") == "image/jpeg" {
		return fmt.Sprintf("jpeg sha256:%x", sha256.Sum256(rr.Body.Bytes()))
	}
	var doc map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		g.t.Fatalf("reply is neither JPEG nor JSON: %v\n%s", err, rr.Body.String())
	}
	normalizeReply(doc)
	if items, ok := doc["items"].([]any); ok {
		// Identical parts share one decode: which one leads it (miss)
		// and whether the other joins in flight (wait) or after it
		// landed (hit) is a race. Render the group's outcomes sorted.
		var dups []map[string]any
		var outcomes []string
		for _, it := range items {
			item := it.(map[string]any)
			normalizeReply(item)
			if item["name"] == "dup.jpg" {
				c, _ := item["cache"].(string)
				if c == "hit" || c == "wait" {
					c = "hit|wait"
				}
				dups = append(dups, item)
				outcomes = append(outcomes, c)
			}
		}
		sort.Strings(outcomes)
		for i, item := range dups {
			item["cache"] = outcomes[i]
		}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		g.t.Fatal(err)
	}
	return string(b)
}

func normalizeReply(doc map[string]any) {
	for _, k := range []string{"wallMs", "retryAfterSec"} {
		if _, ok := doc[k]; ok {
			doc[k] = "N"
		}
	}
}
