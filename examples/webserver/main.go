// Webserver: the browser-side story of the paper's introduction, turned
// inside out — an image service that decodes uploaded JPEGs with the
// heterogeneous decoder and reports its scheduling decisions. POST a
// JPEG to /decode to get the decoded dimensions, the CPU/GPU split and
// the virtual schedule (?scale=1/2, 1/4 or 1/8 decodes to a thumbnail
// through the scaled IDCT); POST a multipart form of JPEGs to /batch to
// decode them concurrently (the pipelined band scheduler by default;
// ?scheduler=perimage selects the whole-image pool) and get the
// cross-image pipelining gain; GET /platforms lists the simulated
// machines.
//
//	go run ./examples/webserver -addr :8080 &
//	curl -s --data-binary @photo.jpg localhost:8080/decode?mode=pps | jq
//	curl -s -F img=@a.jpg -F img=@b.jpg -F img=@c.jpg localhost:8080/batch | jq
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"time"

	"hetjpeg"
	"hetjpeg/internal/core"
)

type server struct {
	spec    *hetjpeg.Platform
	model   *hetjpeg.Model
	workers int
	// maxBody caps a single-image upload (0 = 64 MiB); over it the
	// handler answers 413 with a JSON error.
	maxBody int64
}

func (s *server) bodyLimit() int64 {
	if s.maxBody > 0 {
		return s.maxBody
	}
	return 64 << 20
}

type decodeReply struct {
	Width    int    `json:"width,omitempty"`
	Height   int    `json:"height,omitempty"`
	Mode     string `json:"mode"`
	Platform string `json:"platform"`
	// Scale is the decode scale that ran ("1", "1/2", "1/4", "1/8").
	Scale         string  `json:"scale"`
	VirtualMs     float64 `json:"virtualMs"`
	HuffmanMs     float64 `json:"huffmanMs"`
	GPUMCURows    int     `json:"gpuMcuRows"`
	CPUMCURows    int     `json:"cpuMcuRows"`
	Chunks        int     `json:"chunks"`
	Repartitioned bool    `json:"repartitioned"`
	// EntropyScans is 1 for baseline, the scan count for progressive.
	EntropyScans int     `json:"entropyScans,omitempty"`
	WallMs       float64 `json:"wallMs"`
	Error        string  `json:"error,omitempty"`
	// Unsupported distinguishes "valid JPEG, feature out of scope"
	// (HTTP 415) from corruption (HTTP 422).
	Unsupported bool `json:"unsupported,omitempty"`
	// Salvaged reports a partial recovery (?salvage=1): the decode
	// succeeded (HTTP 200, X-Hetjpeg-Salvaged: true) but some MCUs were
	// lost; SalvageError carries the absorbed error.
	Salvaged      bool   `json:"salvaged,omitempty"`
	RecoveredMCUs int    `json:"recoveredMcus,omitempty"`
	TotalMCUs     int    `json:"totalMcus,omitempty"`
	SalvageError  string `json:"salvageError,omitempty"`
}

// writeJSONError keeps rejected uploads on the same JSON contract as
// decode replies (http.Error would answer text/plain).
func writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(decodeReply{Error: msg})
}

// salvageFromQuery enables partial-image recovery: with ?salvage=1 a
// corrupt-but-recoverable upload returns HTTP 200 with the decoded
// (partially gray) metadata and salvage accounting instead of 422.
func salvageFromQuery(r *http.Request) bool {
	switch r.URL.Query().Get("salvage") {
	case "1", "true", "yes":
		return true
	}
	return false
}

func (s *server) modeFromQuery(r *http.Request) (core.Mode, error) {
	q := r.URL.Query().Get("mode")
	if q == "" {
		return hetjpeg.ModePPS, nil
	}
	mode, ok := hetjpeg.ParseMode(q)
	if !ok {
		return 0, fmt.Errorf("unknown mode %q", q)
	}
	return mode, nil
}

// schedulerFromQuery selects the /batch wall-clock engine: the
// pipelined band scheduler by default, ?scheduler=perimage for the
// whole-image pool (identical pixels, different wall-clock shape).
func schedulerFromQuery(r *http.Request) (hetjpeg.BatchScheduler, error) {
	q := r.URL.Query().Get("scheduler")
	sched, ok := hetjpeg.ParseScheduler(q)
	if !ok {
		return 0, fmt.Errorf("unknown scheduler %q", q)
	}
	return sched, nil
}

// scaleFromQuery selects decode-to-scale: ?scale=1/2, 1/4 or 1/8
// reconstructs directly at the reduced resolution (the decode-to-fit
// path a thumbnailer or gallery wants). An unknown value is a request
// error (HTTP 400), reported before any decoding starts.
func scaleFromQuery(r *http.Request) (hetjpeg.Scale, error) {
	q := r.URL.Query().Get("scale")
	scale, ok := hetjpeg.ParseScale(q)
	if !ok {
		return 0, fmt.Errorf("unknown scale %q (want 1, 1/2, 1/4 or 1/8)", q)
	}
	return scale, nil
}

func (s *server) decode(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a JPEG body", http.StatusMethodNotAllowed)
		return
	}
	// Check the JPEG magic from the first two bytes before buffering
	// anything substantial: a 64 MiB PNG should be refused after 2
	// bytes, not read to completion first.
	limited := http.MaxBytesReader(w, r.Body, s.bodyLimit())
	magic := make([]byte, 2)
	if _, err := io.ReadFull(limited, magic); err != nil || magic[0] != 0xFF || magic[1] != 0xD8 {
		writeJSONError(w, http.StatusUnsupportedMediaType, "not a JPEG (missing FF D8 SOI magic)")
		return
	}
	rest, err := io.ReadAll(limited)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeJSONError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", mbe.Limit))
			return
		}
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	body := append(magic, rest...)
	mode, err := s.modeFromQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	scale, err := scaleFromQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	salvage := salvageFromQuery(r)
	start := time.Now()
	// Resolve ModeAuto up front so the reply reports the mode that
	// actually ran, not the sentinel.
	mode = mode.Resolve(s.model)
	res, err := hetjpeg.Decode(body, hetjpeg.Options{Mode: mode, Spec: s.spec, Model: s.model, Scale: scale, Salvage: salvage})
	reply := decodeReply{Mode: mode.String(), Platform: s.spec.Name, Scale: scale.String()}
	// Headers must be set before the first WriteHeader call; the error
	// replies below are JSON too.
	w.Header().Set("Content-Type", "application/json")
	if err != nil && res != nil {
		// Salvaged decode: a usable (partially gray) image plus an
		// ErrPartialData error. That is a success to an image service —
		// 200 with the damage accounted, flagged in a header so caches
		// and clients can tell degraded from pristine.
		reply.Salvaged = true
		reply.SalvageError = err.Error()
		if rep := res.Salvage; rep != nil {
			reply.RecoveredMCUs = rep.RecoveredMCUs
			reply.TotalMCUs = rep.TotalMCUs
		}
		w.Header().Set("X-Hetjpeg-Salvaged", "true")
		err = nil
	}
	if err != nil {
		reply.Error = err.Error()
		if errors.Is(err, hetjpeg.ErrUnsupported) {
			// Valid JPEG, unsupported coding feature: the client should
			// not retry, but also should not treat the file as corrupt.
			reply.Unsupported = true
			w.WriteHeader(http.StatusUnsupportedMediaType)
		} else {
			w.WriteHeader(http.StatusUnprocessableEntity)
		}
	} else {
		reply.Width, reply.Height = res.Image.W, res.Image.H
		reply.VirtualMs = res.TotalNs / 1e6
		reply.HuffmanMs = res.HuffNs / 1e6
		reply.GPUMCURows = res.Stats.GPUMCURows
		reply.CPUMCURows = res.Stats.CPUMCURows
		reply.Chunks = res.Stats.Chunks
		reply.Repartitioned = res.Stats.Repartitioned
		reply.EntropyScans = res.Stats.EntropyScans
		// The reply carries only metadata; hand the pixel and coefficient
		// slabs back to the pool so concurrent request load stays
		// allocation-flat.
		res.Release()
	}
	reply.WallMs = float64(time.Since(start).Microseconds()) / 1000
	_ = json.NewEncoder(w).Encode(reply)
}

type batchImageReply struct {
	Index        int     `json:"index"`
	Width        int     `json:"width,omitempty"`
	Height       int     `json:"height,omitempty"`
	VirtualMs    float64 `json:"virtualMs,omitempty"`
	GPUMCURows   int     `json:"gpuMcuRows,omitempty"`
	CPUMCURows   int     `json:"cpuMcuRows,omitempty"`
	EntropyScans int     `json:"entropyScans,omitempty"`
	Error        string  `json:"error,omitempty"`
	Unsupported  bool    `json:"unsupported,omitempty"`
	// Salvaged marks a partial recovery (?salvage=1): dimensions and
	// stats are present, SalvageError carries the absorbed error.
	Salvaged      bool   `json:"salvaged,omitempty"`
	RecoveredMCUs int    `json:"recoveredMcus,omitempty"`
	TotalMCUs     int    `json:"totalMcus,omitempty"`
	SalvageError  string `json:"salvageError,omitempty"`
}

type batchReply struct {
	Mode        string            `json:"mode"`
	Scale       string            `json:"scale"`
	Platform    string            `json:"platform"`
	Workers     int               `json:"workers"`
	Images      []batchImageReply `json:"images"`
	Failed      int               `json:"failed"`
	Salvaged    int               `json:"salvaged,omitempty"`
	SerialMs    float64           `json:"serialMs"`
	PipelinedMs float64           `json:"pipelinedMs"`
	Gain        float64           `json:"gain"`
	WallMs      float64           `json:"wallMs"`
}

// batch decodes every part of a multipart upload concurrently. One
// corrupt image does not fail the request: its slot carries the error.
func (s *server) batch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a multipart form of JPEGs", http.StatusMethodNotAllowed)
		return
	}
	mode, err := s.modeFromQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sched, err := schedulerFromQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	scale, err := scaleFromQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	const (
		maxImages    = 256
		maxImageSize = 64 << 20
		maxBatchSize = 512 << 20
	)
	r.Body = http.MaxBytesReader(w, r.Body, maxBatchSize)
	mr, err := r.MultipartReader()
	if err != nil {
		http.Error(w, "expected multipart/form-data: "+err.Error(), http.StatusBadRequest)
		return
	}
	var datas [][]byte
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if len(datas) == maxImages {
			part.Close()
			http.Error(w, fmt.Sprintf("too many images (max %d)", maxImages), http.StatusRequestEntityTooLarge)
			return
		}
		// Read one byte past the cap so an at-limit part is detected as
		// oversized rather than silently truncated.
		data, err := io.ReadAll(io.LimitReader(part, maxImageSize+1))
		part.Close()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if len(data) > maxImageSize {
			http.Error(w, fmt.Sprintf("image %d exceeds %d bytes", len(datas), maxImageSize), http.StatusRequestEntityTooLarge)
			return
		}
		datas = append(datas, data)
	}
	if len(datas) == 0 {
		http.Error(w, "no images in form", http.StatusBadRequest)
		return
	}

	salvage := salvageFromQuery(r)
	start := time.Now()
	mode = mode.Resolve(s.model) // report the mode that actually runs
	res, err := hetjpeg.DecodeBatchContext(r.Context(), datas, hetjpeg.BatchOptions{
		Spec: s.spec, Model: s.model, Mode: mode, Scheduler: sched, Workers: s.workers, Scale: scale,
		Salvage: salvage,
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	reply := batchReply{
		Mode:        mode.String(),
		Scale:       scale.String(),
		Platform:    s.spec.Name,
		Workers:     s.workers,
		Failed:      res.Failed,
		Salvaged:    res.Salvaged,
		SerialMs:    res.SerialNs / 1e6,
		PipelinedMs: res.PipelinedNs / 1e6,
		Gain:        res.Gain(),
	}
	for _, ir := range res.Images {
		img := batchImageReply{Index: ir.Index}
		if ir.Res == nil {
			img.Error = ir.Err.Error()
			img.Unsupported = errors.Is(ir.Err, hetjpeg.ErrUnsupported)
		} else {
			if ir.Err != nil {
				// Salvaged: usable pixels plus an ErrPartialData error.
				img.Salvaged = true
				img.SalvageError = ir.Err.Error()
				if rep := ir.Res.Salvage; rep != nil {
					img.RecoveredMCUs = rep.RecoveredMCUs
					img.TotalMCUs = rep.TotalMCUs
				}
			}
			img.Width, img.Height = ir.Res.Image.W, ir.Res.Image.H
			img.VirtualMs = ir.Res.TotalNs / 1e6
			img.GPUMCURows = ir.Res.Stats.GPUMCURows
			img.CPUMCURows = ir.Res.Stats.CPUMCURows
			img.EntropyScans = ir.Res.Stats.EntropyScans
			ir.Res.Release()
		}
		reply.Images = append(reply.Images, img)
	}
	if res.Salvaged > 0 {
		w.Header().Set("X-Hetjpeg-Salvaged", "true")
	}
	reply.WallMs = float64(time.Since(start).Microseconds()) / 1000
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(reply)
}

func (s *server) platforms(w http.ResponseWriter, _ *http.Request) {
	type p struct {
		Name, CPU, GPU string
		Modes          []string
	}
	var out []p
	var modes []string
	for _, m := range core.AllModes() {
		modes = append(modes, m.String())
	}
	for _, spec := range hetjpeg.Platforms() {
		out = append(out, p{Name: spec.Name, CPU: spec.CPUModel, GPU: spec.GPUModel, Modes: modes})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", ":8080", "listen address")
	platformName := flag.String("platform", "GTX 560", "simulated machine")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent decodes per /batch request")
	flag.Parse()

	spec := hetjpeg.PlatformByName(*platformName)
	if spec == nil {
		log.Fatalf("unknown platform %q", *platformName)
	}
	model, err := hetjpeg.DefaultModel(spec)
	if err != nil {
		log.Fatal(err)
	}
	s := &server{spec: spec, model: model, workers: *workers}
	mux := http.NewServeMux()
	mux.HandleFunc("/decode", s.decode)
	mux.HandleFunc("/batch", s.batch)
	mux.HandleFunc("/platforms", s.platforms)
	log.Printf("decoding as %s on %s (%d batch workers)", spec, *addr, *workers)
	log.Fatal(http.ListenAndServe(*addr, mux))
}
