package transcode

import (
	"sync"
	"time"

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
