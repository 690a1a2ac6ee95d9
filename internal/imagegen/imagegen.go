// Package imagegen synthesizes photographic-texture test images with
// controllable detail, substituting for the paper's training corpus (12
// benchmark images + 7 photographs, cropped to 4449 sizes) and test
// corpus (14 + 3, cropped to 3597 sizes). The generator spans the same
// parameter space the performance model consumes: image width, height,
// and entropy density (bytes of compressed data per pixel), the latter
// controlled by the amount of high-frequency texture.
package imagegen

import (
	"fmt"

	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
)

// Scene parameterizes one synthetic photograph.
type Scene struct {
	Seed int64
	// Detail in [0,1] scales high-frequency texture amplitude: 0 yields
	// smooth gradients (sparse entropy), 1 yields dense texture.
	Detail float64
}

// hash64 is a SplitMix64-style avalanche over lattice coordinates.
func hash64(x, y int64, seed int64) uint64 {
	z := uint64(x)*0x9E3779B97F4A7C15 ^ uint64(y)*0xC2B2AE3D27D4EB4F ^ uint64(seed)*0x165667B19E3779F9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// latticeValue returns a deterministic value in [0,1) at a lattice point.
func latticeValue(x, y int64, seed int64) float64 {
	return float64(hash64(x, y, seed)>>11) / float64(1<<53)
}

// valueNoise samples smooth value noise at (x, y) with cell size `cell`.
func valueNoise(x, y float64, cell float64, seed int64) float64 {
	gx, gy := x/cell, y/cell
	x0, y0 := int64(gx), int64(gy)
	fx, fy := gx-float64(x0), gy-float64(y0)
	// Smoothstep interpolation weights.
	sx := fx * fx * (3 - 2*fx)
	sy := fy * fy * (3 - 2*fy)
	v00 := latticeValue(x0, y0, seed)
	v10 := latticeValue(x0+1, y0, seed)
	v01 := latticeValue(x0, y0+1, seed)
	v11 := latticeValue(x0+1, y0+1, seed)
	top := v00 + (v10-v00)*sx
	bot := v01 + (v11-v01)*sx
	return top + (bot-top)*sy
}

// Generate renders a w x h RGB image for the scene. The composition is a
// smooth multi-octave base (low entropy) plus detail-scaled fine octaves
// and per-pixel grain (high entropy).
func Generate(sc Scene, w, h int) *jpegcodec.RGBImage {
	img := jpegcodec.NewRGBImage(w, h)
	d := sc.Detail
	if d < 0 {
		d = 0
	}
	if d > 1 {
		d = 1
	}
	for y := 0; y < h; y++ {
		fy := float64(y)
		row := img.Pix[y*w*3 : (y+1)*w*3]
		for x := 0; x < w; x++ {
			fx := float64(x)
			// Smooth base: two large octaves.
			base := 0.6*valueNoise(fx, fy, 96, sc.Seed) + 0.4*valueNoise(fx, fy, 33, sc.Seed+1)
			// Detail octaves.
			det := 0.5*valueNoise(fx, fy, 9, sc.Seed+2) +
				0.3*valueNoise(fx, fy, 3.2, sc.Seed+3) +
				0.2*latticeValue(int64(x), int64(y), sc.Seed+4) // grain
			luma := 255 * (0.25 + 0.5*base + d*0.45*(det-0.5))
			// Chroma varies smoothly with a small detail component.
			cb := 0.5*valueNoise(fx, fy, 71, sc.Seed+5) + d*0.15*(valueNoise(fx, fy, 7, sc.Seed+6)-0.5)
			cr := 0.5*valueNoise(fx, fy, 59, sc.Seed+7) + d*0.15*(valueNoise(fx, fy, 11, sc.Seed+8)-0.5)
			r := clampF(luma + 180*(cr-0.25))
			g := clampF(luma - 90*(cr-0.25) - 60*(cb-0.25))
			b := clampF(luma + 200*(cb-0.25))
			row[x*3], row[x*3+1], row[x*3+2] = r, g, b
		}
	}
	return img
}

func clampF(v float64) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}

// Item is one corpus entry: an encoded JPEG plus its descriptors.
type Item struct {
	Name    string
	Data    []byte
	W, H    int
	Sub     jfif.Subsampling
	Detail  float64
	Density float64 // bytes per pixel (Equation 3)
	// Progressive marks a multi-scan (SOF2) fixture.
	Progressive bool
	// RestartInterval is the fixture's DRI value (0 when absent).
	RestartInterval int
}

// CorpusOptions controls corpus generation.
type CorpusOptions struct {
	// Widths and Heights form the crop grid (the paper crops baseline
	// images to every combination up to 25 MP).
	Widths  []int
	Heights []int
	// Details are the texture levels, spanning the entropy-density range.
	Details []float64
	// Sub is the chroma subsampling for every item.
	Sub jfif.Subsampling
	// Quality is the encoder quality (default 85).
	Quality int
	// SeedBase separates training scenes from test scenes.
	SeedBase int64
}

// DefaultTraining returns a compact training corpus covering the model's
// input ranges; callers can request denser grids.
func DefaultTraining(sub jfif.Subsampling) CorpusOptions {
	return CorpusOptions{
		Widths:   []int{64, 256, 512, 1024, 1600, 2304},
		Heights:  []int{64, 256, 512, 1024, 1600, 2304},
		Details:  []float64{0.05, 0.35, 0.7, 1.0},
		Sub:      sub,
		Quality:  85,
		SeedBase: 1000,
	}
}

// DefaultTest returns the evaluation corpus; scenes are disjoint from the
// training corpus (different seeds), as in the paper.
func DefaultTest(sub jfif.Subsampling) CorpusOptions {
	return CorpusOptions{
		Widths:   []int{96, 256, 448, 640, 896, 1152},
		Heights:  []int{96, 256, 448, 640, 896, 1152},
		Details:  []float64{0.1, 0.5, 0.9},
		Sub:      sub,
		Quality:  85,
		SeedBase: 77000,
	}
}

// Build renders and encodes the corpus.
func Build(opts CorpusOptions) ([]Item, error) {
	if opts.Quality == 0 {
		opts.Quality = 85
	}
	var items []Item
	scene := 0
	for _, detail := range opts.Details {
		for wi, w := range opts.Widths {
			for hi, h := range opts.Heights {
				// Vary the scene with the grid position so corpora are
				// not crops of a single texture.
				sc := Scene{Seed: opts.SeedBase + int64(scene*131+wi*17+hi), Detail: detail}
				img := Generate(sc, w, h)
				data, err := jpegcodec.Encode(img, jpegcodec.EncodeOptions{
					Quality:     opts.Quality,
					Subsampling: opts.Sub,
				})
				if err != nil {
					return nil, fmt.Errorf("imagegen: encode %dx%d: %w", w, h, err)
				}
				items = append(items, Item{
					Name:    fmt.Sprintf("%s-d%.2f-%dx%d", opts.Sub, detail, w, h),
					Data:    data,
					W:       w,
					H:       h,
					Sub:     opts.Sub,
					Detail:  detail,
					Density: float64(len(data)) / float64(w*h),
				})
			}
		}
		scene++
	}
	return items, nil
}

// ProgressiveVariant is one point of the progressive fixture space: a
// scan script paired with a chroma layout and restart interval.
type ProgressiveVariant struct {
	Name            string
	Sub             jfif.Subsampling
	Script          []jpegcodec.ScanSpec
	RestartInterval int
}

// ProgressiveVariants spans the progressive decode paths
// deterministically: the three chroma layouts under the libjpeg-style
// default script (spectral selection + successive approximation), the
// spectral-selection-only script, a multi-band script with EOB runs
// over mostly-zero high bands, a deep successive-approximation script
// (maximal refinement coverage), and restart-interval variants of both
// interleaved-DC and AC scans. Every script is resolved through the
// encoder's named script table (jpegcodec.ScriptByName), so fixtures
// can never drift from what the public encoder emits for that name.
func ProgressiveVariants() []ProgressiveVariant {
	script := func(name string) []jpegcodec.ScanSpec {
		sc, ok := jpegcodec.ScriptByName(name)
		if !ok {
			panic(fmt.Sprintf("imagegen: script %q missing from the jpegcodec table", name))
		}
		return sc
	}
	return []ProgressiveVariant{
		{Name: "default-444", Sub: jfif.Sub444, Script: script("default")},
		{Name: "default-422", Sub: jfif.Sub422, Script: script("default")},
		{Name: "default-420", Sub: jfif.Sub420, Script: script("default")},
		{Name: "spectral-444", Sub: jfif.Sub444, Script: script("spectral")},
		{Name: "spectral-420", Sub: jfif.Sub420, Script: script("spectral")},
		{Name: "multiband-444", Sub: jfif.Sub444, Script: script("multiband")},
		{Name: "multiband-422", Sub: jfif.Sub422, Script: script("multiband")},
		{Name: "deepsa-444", Sub: jfif.Sub444, Script: script("deepsa")},
		{Name: "deepsa-420", Sub: jfif.Sub420, Script: script("deepsa")},
		{Name: "default-444-rst3", Sub: jfif.Sub444, Script: script("default"), RestartInterval: 3},
		{Name: "spectral-444-rst7", Sub: jfif.Sub444, Script: script("spectral"), RestartInterval: 7},
		{Name: "spectral-420-rst4", Sub: jfif.Sub420, Script: script("spectral"), RestartInterval: 4},
	}
}

// BuildProgressive renders and encodes the progressive fixture corpus:
// every variant at every (size, detail) grid point, with a distinct
// deterministic scene per item.
func BuildProgressive(sizes [][2]int, details []float64, seedBase int64) ([]Item, error) {
	var items []Item
	for vi, v := range ProgressiveVariants() {
		for si, wh := range sizes {
			for di, detail := range details {
				sc := Scene{Seed: seedBase + int64(vi*1009+si*89+di), Detail: detail}
				img := Generate(sc, wh[0], wh[1])
				data, err := jpegcodec.Encode(img, jpegcodec.EncodeOptions{
					Quality:         85,
					Subsampling:     v.Sub,
					Progressive:     true,
					Script:          v.Script,
					RestartInterval: v.RestartInterval,
				})
				if err != nil {
					return nil, fmt.Errorf("imagegen: progressive %s %dx%d: %w", v.Name, wh[0], wh[1], err)
				}
				items = append(items, Item{
					Name:            fmt.Sprintf("prog-%s-d%.2f-%dx%d", v.Name, detail, wh[0], wh[1]),
					Data:            data,
					W:               wh[0],
					H:               wh[1],
					Sub:             v.Sub,
					Detail:          detail,
					Density:         float64(len(data)) / float64(wh[0]*wh[1]),
					Progressive:     true,
					RestartInterval: v.RestartInterval,
				})
			}
		}
	}
	return items, nil
}

// SizeSweep builds a corpus of a single detail level across a size sweep,
// used by the figure benchmarks that plot against pixel count.
func SizeSweep(sub jfif.Subsampling, detail float64, sizes [][2]int, seed int64) ([]Item, error) {
	var items []Item
	for _, wh := range sizes {
		img := Generate(Scene{Seed: seed, Detail: detail}, wh[0], wh[1])
		data, err := jpegcodec.Encode(img, jpegcodec.EncodeOptions{Quality: 85, Subsampling: sub})
		if err != nil {
			return nil, err
		}
		items = append(items, Item{
			Name:    fmt.Sprintf("%s-sweep-%dx%d", sub, wh[0], wh[1]),
			Data:    data,
			W:       wh[0],
			H:       wh[1],
			Sub:     sub,
			Detail:  detail,
			Density: float64(len(data)) / float64(wh[0]*wh[1]),
		})
	}
	return items, nil
}

// GenerateGradientDetail renders an image whose texture detail ramps from
// topDetail at the first row to bottomDetail at the last. The resulting
// JPEG has a vertically skewed entropy distribution, the situation the
// PPS re-partitioning step (Equations 16-17) is designed to correct.
func GenerateGradientDetail(seed int64, w, h int, topDetail, bottomDetail float64) *jpegcodec.RGBImage {
	img := jpegcodec.NewRGBImage(w, h)
	for y := 0; y < h; y++ {
		t := float64(y) / float64(maxInt(1, h-1))
		d := topDetail + (bottomDetail-topDetail)*t
		fy := float64(y)
		row := img.Pix[y*w*3 : (y+1)*w*3]
		for x := 0; x < w; x++ {
			fx := float64(x)
			base := 0.6*valueNoise(fx, fy, 96, seed) + 0.4*valueNoise(fx, fy, 33, seed+1)
			det := 0.5*valueNoise(fx, fy, 9, seed+2) +
				0.3*valueNoise(fx, fy, 3.2, seed+3) +
				0.2*latticeValue(int64(x), int64(y), seed+4)
			luma := 255 * (0.25 + 0.5*base + d*0.45*(det-0.5))
			cb := 0.5 * valueNoise(fx, fy, 71, seed+5)
			cr := 0.5 * valueNoise(fx, fy, 59, seed+7)
			row[x*3] = clampF(luma + 180*(cr-0.25))
			row[x*3+1] = clampF(luma - 90*(cr-0.25) - 60*(cb-0.25))
			row[x*3+2] = clampF(luma + 200*(cb-0.25))
		}
	}
	return img
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
