package imaged

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"hetjpeg"
	"hetjpeg/internal/rescache"
)

// maxBatchParts caps one /batch request: enough for a gallery page,
// small enough that a single request cannot monopolize the executor.
const maxBatchParts = 256

// batchItemReply is one part's outcome inside a /batch response: the
// same shape as a /decode body plus the part's identity and its
// per-item HTTP-equivalent status (a batch response is always 200; the
// per-item codes carry the /decode status map).
type batchItemReply struct {
	Index  int    `json:"index"`
	Name   string `json:"name,omitempty"`
	Status int    `json:"status"`
	decodeReply
}

// batchReply is the /batch response envelope.
type batchReply struct {
	Count    int              `json:"count"`
	OK       int              `json:"ok"`
	Salvaged int              `json:"salvaged"`
	Shed     int              `json:"shed"`
	Errors   int              `json:"errors"`
	WallMs   float64          `json:"wallMs"`
	Items    []batchItemReply `json:"items"`
}

// handleBatch decodes a multipart batch of JPEGs in one request — the
// gallery-page shape the paper's workload is built around. Each part
// goes through the same cache discipline as /decode: resident parts are
// served before admission (they cannot be shed), the remaining parts
// are admitted as one reservation covering their summed bytes, and
// identical parts in one batch collapse to a single decode through the
// cache's singleflight. Per-part outcomes carry /decode's status map in
// items[i].status; the batch response itself is 200 unless the request
// as a whole is malformed. ?scale=, ?timeout= and ?cache=bypass apply
// to every part; ?degrade= is not supported on this path.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST a multipart/form-data batch of JPEGs")
		return
	}
	if s.refuseDraining(w) {
		return
	}
	q := r.URL.Query()
	scale, ok := hetjpeg.ParseScale(q.Get("scale"))
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown scale %q (want 1, 1/2, 1/4 or 1/8)", q.Get("scale")))
		return
	}
	timeout, err := s.timeoutFromQuery(q.Get("timeout"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	bypass, err := cacheModeFromQuery(q.Get("cache"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	parts, status, msg := readBatchParts(r, s.cfg.MaxBody)
	if status != 0 {
		writeError(w, status, msg)
		return
	}

	items := make([]batchItemReply, len(parts))
	type job struct {
		idx int
		key rescache.Key
	}
	var jobs []job
	var missBytes int64
	for i := range parts {
		pt := &parts[i]
		items[i].Index = i
		items[i].Name = pt.name
		if pt.errStatus != 0 {
			items[i].Status = pt.errStatus
			items[i].Error = pt.errMsg
			continue
		}
		key := rescache.KeyFor(pt.data, scale, s.cfg.Salvage)
		if ent := s.probe(key, bypass); ent != nil {
			// Resident: served ahead of admission, can't be shed.
			items[i].decodeReply, items[i].Status = s.replyFor(ent.Result(), ent.Err(), "hit", scale, false, timeout)
			ent.Release()
			continue
		}
		jobs = append(jobs, job{i, key})
		missBytes += int64(len(pt.data))
	}

	// One reservation covers every part that actually needs a decode;
	// when the gate refuses it, only those parts are shed — the hits
	// above already have their replies.
	if len(jobs) > 0 {
		if s.gate.admit(missBytes) {
			defer s.gate.release(missBytes)
		} else {
			shed := s.shed(w)
			for _, j := range jobs {
				items[j.idx].Status = http.StatusTooManyRequests
				items[j.idx].decodeReply = shed
			}
			jobs = nil
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			// A panic here is outside the middleware's stack; contain it
			// to the one part, mirroring what the middleware would log.
			defer func() {
				if p := recover(); p != nil {
					s.panics.Add(1)
					s.log.Printf("panic decoding batch part %d: %v\n%s", j.idx, p, debug.Stack())
					items[j.idx].Status = http.StatusInternalServerError
					items[j.idx].decodeReply = decodeReply{Error: "internal error"}
				}
			}()
			res, outcome, release, decodeErr := s.decodeStep(ctx, parts[j.idx].data, scale, j.key, bypass)
			defer release()
			items[j.idx].decodeReply, items[j.idx].Status = s.replyFor(res, decodeErr, outcome, scale, false, timeout)
		}(j)
	}
	wg.Wait()

	reply := batchReply{Count: len(items), Items: items}
	for i := range items {
		switch {
		case items[i].Status == http.StatusOK:
			reply.OK++
			if items[i].Salvaged {
				reply.Salvaged++
			}
		case items[i].Shed:
			reply.Shed++
		default:
			reply.Errors++
		}
	}
	reply.WallMs = float64(time.Since(start).Microseconds()) / 1000
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(reply)
}

// batchPart is one multipart part, buffered; errStatus != 0 marks a
// part rejected before decoding (not a JPEG).
type batchPart struct {
	name      string
	data      []byte
	errMsg    string
	errStatus int
}

// readBatchParts buffers every multipart part under the request-wide
// maxBody budget. status is 0 on success; a non-zero status rejects the
// whole batch (malformed multipart, over budget, too many parts) — a
// merely non-JPEG part only fails itself via errStatus.
func readBatchParts(r *http.Request, maxBody int64) (parts []batchPart, status int, msg string) {
	mr, err := r.MultipartReader()
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Sprintf("multipart/form-data required: %v", err)
	}
	var total int64
	for {
		p, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Sprintf("malformed multipart body: %v", err)
		}
		if len(parts) >= maxBatchParts {
			return nil, http.StatusBadRequest, fmt.Sprintf("too many parts (max %d)", maxBatchParts)
		}
		data, err := io.ReadAll(io.LimitReader(p, maxBody-total+1))
		_ = p.Close()
		if err != nil {
			return nil, http.StatusBadRequest, err.Error()
		}
		total += int64(len(data))
		if total > maxBody {
			return nil, http.StatusRequestEntityTooLarge, fmt.Sprintf("batch exceeds %d bytes", maxBody)
		}
		pt := batchPart{name: p.FileName(), data: data}
		if pt.name == "" {
			pt.name = p.FormName()
		}
		if len(data) < 2 || data[0] != 0xFF || data[1] != 0xD8 {
			pt.errMsg = "not a JPEG (missing FF D8 SOI magic)"
			pt.errStatus = http.StatusUnsupportedMediaType
		}
		parts = append(parts, pt)
	}
	if len(parts) == 0 {
		return nil, http.StatusBadRequest, "empty batch: send each JPEG as one multipart part"
	}
	return parts, 0, ""
}
