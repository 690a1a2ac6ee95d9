package transcode

import (
	"context"
	"sync"
	"time"

	"hetjpeg/internal/batch"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/perfmodel"
)

// Rates is the concurrency-safe wrapper around the perfmodel encode
// rate classes: many transcode handlers observe into it while the
// admission path reads it for Retry-After pricing.
type Rates struct {
	mu sync.Mutex
	r  perfmodel.EncodeRates
}

// ObserveResult folds a finished transcode's encode cost into its
// class's ns/MCU estimate.
func (r *Rates) ObserveResult(res *Result) {
	if res == nil || res.MCUs <= 0 || res.EncodeNs <= 0 {
		return
	}
	r.mu.Lock()
	r.r.At(res.Class).Observe(float64(res.EncodeNs) / float64(res.MCUs))
	r.mu.Unlock()
}

// Value returns the current ns/MCU estimate for a class (0 when
// unseeded).
func (r *Rates) Value(c perfmodel.EncodeClass) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.r.At(c).Value()
}

// Max returns the largest estimate across classes — the conservative
// number for pricing mixed traffic.
func (r *Rates) Max() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.r.Max()
}

// Calibrate seeds every class by encoding one small synthetic image
// under it, so Retry-After pricing has a defensible number before the
// first real request instead of a cold zero. Observed traffic then
// corrects the seed through the EWMA. The calibration image is a
// 128x128 diagonal gradient — cheap, but with enough AC energy that
// the measured ns/MCU is not a best-case outlier.
func (r *Rates) Calibrate() {
	img := jpegcodec.NewRGBImage(128, 128)
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			img.Set(x, y, byte(x*2), byte(y*2), byte((x+y)&0xFF))
		}
	}
	defer img.Release()
	for _, opts := range []Options{
		{Progressive: false}, // EncodeOptimized (optimal Huffman is always on)
		{Progressive: true},  // EncodeProgressive
	} {
		t0 := time.Now()
		if _, err := jpegcodec.Encode(img, opts.encodeOptions()); err != nil {
			continue
		}
		ns := time.Since(t0).Nanoseconds()
		mcus := opts.outputMCUs(img.W, img.H)
		r.mu.Lock()
		r.r.At(opts.Class()).Seed(float64(ns) / float64(mcus))
		r.mu.Unlock()
	}
}

// Pipeline routes the decode stage of transcodes through a shared
// batch executor — the work-stealing band scheduler decodes many
// in-flight inputs concurrently — and runs the re-encode stage on the
// calling goroutine. It is the batch mirror of the one-shot Transcode
// and feeds the same Rates.
type Pipeline struct {
	ex *batch.Executor

	// Rates learns the ns/MCU encode cost per rate class from every
	// transcode the pipeline completes.
	Rates Rates
}

// NewPipeline starts a pipeline over a fresh executor with the given
// batch options.
func NewPipeline(opts batch.Options) (*Pipeline, error) {
	ex, err := batch.NewExecutor(opts)
	if err != nil {
		return nil, err
	}
	return &Pipeline{ex: ex}, nil
}

// Transcode decodes data at opts.Scale through the executor, then
// re-encodes with the transcode knobs. ctx bounds the decode stage
// (it flows into the entropy and back phases).
func (p *Pipeline) Transcode(ctx context.Context, data []byte, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	ir, err := p.ex.Decode(ctx, data, opts.Scale)
	if err != nil {
		return nil, err
	}
	if ir.Err != nil {
		if ir.Res != nil {
			ir.Res.Release()
		}
		return nil, ir.Err
	}
	decNs := time.Since(t0).Nanoseconds()
	defer ir.Res.Release()

	res, err := EncodeImage(ir.Res.Image, opts, ir.Res.Frame.DCOnly(), decNs)
	if err != nil {
		return nil, err
	}
	p.Rates.ObserveResult(res)
	return res, nil
}

// Close shuts the executor down and waits for it to drain. Call only
// once no Transcode call can still submit.
func (p *Pipeline) Close() {
	p.ex.Close()
	for range p.ex.Results() {
	}
}
