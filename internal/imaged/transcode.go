package imaged

import (
	"fmt"
	"math"
	"net/http"
	"strconv"

	"hetjpeg"
	"hetjpeg/internal/transcode"
)

// transcodeOptions parses and validates the transcode-only knobs
// (?quality=, ?progressive=, ?script=) around the request's scale.
// Returned errors are client errors (400).
func (s *Server) transcodeOptions(q *request) (transcode.Options, error) {
	opts := transcode.Options{Scale: q.scale, Script: q.query.Get("script"), Workers: s.cfg.Workers}
	if v := q.query.Get("quality"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return opts, fmt.Errorf("bad quality %q: not an integer", v)
		}
		opts.Quality = n
	}
	if v := q.query.Get("progressive"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return opts, fmt.Errorf("bad progressive %q: want a boolean", v)
		}
		opts.Progressive = b
	}
	return opts, opts.Validate()
}

// handleTranscode is POST /transcode: decode → scale → re-encode. The
// decode is the shared pipeline over one part, so it rides the same
// executor, admission gate, deadline and decoded-output cache as
// /decode; but a cache hit is still admitted, since the re-encode is
// real work the gate must budget. The encode runs on the handler
// goroutine with optimal Huffman output and feeds the learned ns/MCU
// encode rates that price Retry-After for the transcode backlog.
// Success is the JPEG itself (Content-Type: image/jpeg) with the
// X-Hetjpeg-Cache / X-Hetjpeg-Fastpath / X-Hetjpeg-Salvaged headers;
// failures keep /decode's JSON error shape and status map (429's
// Retry-After includes the encode backlog), plus 400 for invalid
// transcode knobs and 500 for a failed encode.
func (s *Server) handleTranscode(w http.ResponseWriter, r *http.Request) {
	q, ok := s.begin(w, r, "POST a JPEG body")
	if !ok {
		return
	}
	topts, err := s.transcodeOptions(&q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	data, status, msg := readJPEGBody(w, r, s.cfg.MaxBody)
	if status != 0 {
		writeError(w, status, msg)
		return
	}
	p := &part{data: data}
	done := s.decodeParts(r, &q, []*part{p}, true, false)
	defer done()
	if p.shed || p.res == nil {
		reply, code := s.replyFor(w, p, &q)
		writeJSON(w, code, reply)
		return
	}

	tr, err := transcode.EncodeImage(p.res.Image, topts, p.res.Frame.DCOnly(), 0)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.encRates.ObserveResult(tr)
	s.mEncodeDur.With(tr.Class.String()).Observe(float64(tr.EncodeNs) / 1e9)
	s.transcodes.Add(1)
	w.Header().Set("X-Hetjpeg-Cache", p.cache)
	if tr.FastPath {
		s.fastpathTranscodes.Add(1)
		w.Header().Set("X-Hetjpeg-Fastpath", "true")
	}
	if p.err != nil {
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
