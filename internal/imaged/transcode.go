package imaged

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"hetjpeg"
	"hetjpeg/internal/rescache"
	"hetjpeg/internal/transcode"
)

// POST /transcode: decode → scale → re-encode as a service endpoint.
// The decode stage rides the same executor, admission gate, deadline
// machinery and decoded-output cache as /decode (a cached decode skips
// straight to the encoder); the encode stage runs on the handler
// goroutine with optimal Huffman output and feeds the learned ns/MCU
// encode rates that price Retry-After for the transcode backlog.
//
// Success is the JPEG stream itself (Content-Type: image/jpeg) with
// the X-Hetjpeg-Cache / X-Hetjpeg-Fastpath / X-Hetjpeg-Salvaged
// headers; failures keep /decode's JSON error shape and status map,
// plus 400 for invalid transcode knobs.

// transcodeParams parses and validates the /transcode query knobs.
// Returned errors are client errors (400).
func (s *Server) transcodeParams(q url.Values) (transcode.Options, time.Duration, bool, error) {
	var opts transcode.Options
	scale, ok := hetjpeg.ParseScale(q.Get("scale"))
	if !ok {
		return opts, 0, false, fmt.Errorf("unknown scale %q (want 1, 1/2, 1/4 or 1/8)", q.Get("scale"))
	}
	opts.Scale = scale
	if v := q.Get("quality"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return opts, 0, false, fmt.Errorf("bad quality %q: not an integer", v)
		}
		opts.Quality = n
	}
	if v := q.Get("progressive"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return opts, 0, false, fmt.Errorf("bad progressive %q: want a boolean", v)
		}
		opts.Progressive = b
	}
	opts.Script = q.Get("script")
	opts.Workers = s.cfg.Workers
	if err := opts.Validate(); err != nil {
		return opts, 0, false, err
	}
	timeout, err := s.timeoutFromQuery(q.Get("timeout"))
	if err != nil {
		return opts, 0, false, err
	}
	bypass, err := cacheModeFromQuery(q.Get("cache"))
	if err != nil {
		return opts, 0, false, err
	}
	return opts, timeout, bypass, nil
}

// handleTranscode is the transcode path. Status map: 200 transcoded
// JPEG body, 400 bad knobs, 405 bad method, 413 body over MaxBody, 415
// not a JPEG or unsupported coding feature, 422 corrupt stream, 429
// shed (Retry-After includes the encode backlog), 503 deadline
// exceeded or draining.
func (s *Server) handleTranscode(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST a JPEG body")
		return
	}
	if s.refuseDraining(w) {
		return
	}
	topts, timeout, bypass, err := s.transcodeParams(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	data, status, msg := readJPEGBody(w, r, s.cfg.MaxBody)
	if status != 0 {
		writeError(w, status, msg)
		return
	}

	// Probe the decoded-output cache before admission: a resident decode
	// skips the whole decode stage. Unlike /decode, a hit still passes
	// admission — the re-encode is real work the gate must budget.
	key := rescache.KeyFor(data, topts.Scale, s.cfg.Salvage)
	ent := s.probe(key, bypass)

	n := int64(len(data))
	if !s.gate.admit(n) {
		if ent != nil {
			ent.Release()
		}
		writeJSON(w, http.StatusTooManyRequests, s.shed(w))
		return
	}
	defer s.gate.release(n)
	// The transcode backlog is priced separately in Retry-After: these
	// bytes owe an encode pass on top of the decode everyone owes.
	s.transBytes.Add(n)
	defer s.transBytes.Add(-n)

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	var (
		res       *hetjpeg.Result
		outcome   string
		release   func()
		decodeErr error
	)
	t0 := time.Now()
	if ent != nil {
		res, outcome, release, decodeErr = ent.Result(), "hit", ent.Release, ent.Err()
	} else {
		res, outcome, release, decodeErr = s.decodeStep(ctx, data, topts.Scale, key, bypass)
	}
	defer release()
	decNs := time.Since(t0).Nanoseconds()

	if res == nil {
		reply, code := s.replyFor(nil, decodeErr, outcome, topts.Scale, false, timeout)
		s.writeDecodeReply(w, code, reply)
		return
	}

	tr, err := transcode.EncodeImage(res.Image, topts, res.Frame.DCOnly(), decNs)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.encRates.ObserveResult(tr)
	s.mEncodeDur.With(tr.Class.String()).Observe(float64(tr.EncodeNs) / 1e9)
	s.transcodes.Add(1)
	if tr.FastPath {
		s.fastpathTranscodes.Add(1)
	}

	w.Header().Set("X-Hetjpeg-Cache", outcome)
	if tr.FastPath {
		w.Header().Set("X-Hetjpeg-Fastpath", "true")
	}
	if decodeErr != nil {
		// Salvaged decode: usable pixels re-encoded, flagged like /decode.
		w.Header().Set("X-Hetjpeg-Salvaged", "true")
	}
	w.Header().Set("Content-Type", "image/jpeg")
	w.Header().Set("Content-Length", strconv.Itoa(len(tr.Data)))
	_, _ = w.Write(tr.Data)
}

// retryAfterSeconds prices a 429's Retry-After from the scheduler's
// calibrated rates: every pending admitted byte owes a decode — bytes
// → MCUs (bytes/MCU EWMA) → nanoseconds (entropy + back-phase ns/MCU)
// — and the transcode subset additionally owes a re-encode at the
// learned encode ns/MCU (both backlogs mapped through the same input
// bytes/MCU calibration: the output MCU count is unknown until each
// decode runs, so the input geometry stands in for it). The total is
// spread across the workers, rounded up to whole seconds and clamped
// to [1s, 60s]; uncalibrated (cold) servers answer 1s.
func retryAfterSeconds(pendingBytes, transcodeBytes int64, st hetjpeg.BatchQueueStats, workers int, encNsPerMCU float64) int {
	if st.BytesPerMCU <= 0 {
		return 1
	}
	var ns float64
	if perMCU := st.EntropyNsPerMCU + st.BackNsPerMCU; perMCU > 0 {
		ns += float64(pendingBytes) / st.BytesPerMCU * perMCU / float64(workers)
	}
	if encNsPerMCU > 0 && transcodeBytes > 0 {
		ns += float64(transcodeBytes) / st.BytesPerMCU * encNsPerMCU / float64(workers)
	}
	if ns <= 0 {
		return 1
	}
	sec := int(math.Ceil(ns / 1e9))
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}
