package imaged

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
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
// gallery-page shape the paper's workload is built around — as the
// shared pipeline over N parts: resident parts are served before
// admission (they cannot be shed), the remaining parts are admitted as
// one reservation covering their summed bytes (a refusal sheds only
// them), and identical parts in one batch collapse to a single decode
// through the cache's singleflight. Per-part outcomes carry /decode's
// status map in items[i].status; the batch response itself is 200
// unless the request as a whole is refused (400, 405, 413, 503).
// ?scale=, ?timeout= and ?cache=bypass apply to every part; ?degrade=
// is not supported on this path.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	q, ok := s.begin(w, r, "POST a multipart/form-data batch of JPEGs")
	if !ok {
		return
	}
	parts, status, msg := readBatchParts(r, s.cfg.MaxBody)
	if status != 0 {
		writeError(w, status, msg)
		return
	}
	var jpegs []*part
	for i := range parts {
		if parts[i].errStatus == 0 {
			jpegs = append(jpegs, &parts[i].part)
		}
	}
	done := s.decodeParts(r, &q, jpegs, false, false)
	defer done()

	items := make([]batchItemReply, len(parts))
	reply := batchReply{Count: len(items), Items: items}
	for i := range parts {
		it := &items[i]
		it.Index, it.Name = i, parts[i].name
		if parts[i].errStatus != 0 {
			it.Status, it.Error = parts[i].errStatus, parts[i].errMsg
		} else {
			it.decodeReply, it.Status = s.replyFor(w, &parts[i].part, &q)
		}
		switch {
		case it.Status == http.StatusOK:
			reply.OK++
			if it.Salvaged {
				reply.Salvaged++
			}
		case it.Shed:
			reply.Shed++
		default:
			reply.Errors++
		}
	}
	reply.WallMs = float64(time.Since(q.start).Microseconds()) / 1000
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(reply)
}

// batchPart is one multipart part, buffered; errStatus != 0 marks a
// part rejected before decoding (not a JPEG).
type batchPart struct {
	part
	name      string
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
		pt := batchPart{part: part{data: data}, name: p.FileName()}
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
