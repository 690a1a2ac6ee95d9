// Package transcode implements the decode → scale → re-encode pipeline
// as a first-class workload: the gallery server's other half, where
// decoded images are not displayed but re-emitted as smaller or
// re-formatted JPEGs. It composes the decode-to-scale machinery with
// the encoder (always with optimal Huffman tables on output) and adds
// the one piece neither side has alone: a coefficient-domain fast path
// for 1/8 thumbnails, where a baseline input decodes through DC-only
// storage — no pixel-domain IDCT ever runs — and the result re-encodes
// bit-identically to the general pixel path.
package transcode

import (
	"errors"
	"fmt"
	"time"

	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
)

// ErrBadOptions marks a transcode refused for invalid knobs (quality
// out of range, unknown script, script without progressive). Check it
// with errors.Is; frontends map it to a 400-class refusal, distinct
// from a corrupt input stream.
var ErrBadOptions = errors.New("transcode: invalid options")

// Options configures one transcode.
type Options struct {
	// Scale decodes the input directly at 1/2, 1/4 or 1/8 of its coded
	// resolution before re-encoding (zero value: full size).
	Scale jpegcodec.Scale
	// Quality is the output quality factor, 1..100. Zero means 75.
	Quality int
	// Progressive emits a multi-scan SOF2 output stream.
	Progressive bool
	// Script names the progressive scan script from the jpegcodec
	// table ("default", "spectral", "multiband", "deepsa"; "" means
	// default). Setting it without Progressive is refused.
	Script string
	// Subsampling selects the output chroma layout (default 4:4:4).
	Subsampling jfif.Subsampling
	// Workers bounds intra-image parallelism of the decode back phase
	// and the encoder forward pass. 0 or 1 runs sequentially; output
	// bytes are identical for every worker count.
	Workers int
}

// Validate checks the knobs without touching any input bytes. All
// violations wrap ErrBadOptions.
func (o *Options) Validate() error {
	if err := o.Scale.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrBadOptions, err)
	}
	if o.Quality < 0 || o.Quality > 100 {
		return fmt.Errorf("%w: quality %d outside 1..100", ErrBadOptions, o.Quality)
	}
	if o.Script != "" && !o.Progressive {
		return fmt.Errorf("%w: script %q requires progressive output", ErrBadOptions, o.Script)
	}
	if _, ok := jpegcodec.ScriptByName(o.Script); !ok {
		return fmt.Errorf("%w: unknown script %q (want one of %v)", ErrBadOptions, o.Script, jpegcodec.ScriptNames())
	}
	return nil
}

// Class names the encoder configuration an encode-rate observation
// belongs to. Output always uses optimal Huffman tables, so there are
// two: the single-scan emitter with its statistics pass, and the
// progressive emitter, which runs two passes per scan of its script.
// They cost very differently per MCU, so Rates learns each on its own.
type Class int

const (
	// ClassOptimized is single-scan output with optimal Huffman tables.
	ClassOptimized Class = iota
	// ClassProgressive is progressive output.
	ClassProgressive
)

// Classes lists every class.
func Classes() []Class { return []Class{ClassOptimized, ClassProgressive} }

// String returns the class's stable label ("optimized",
// "progressive"), the spelling metrics and logs use.
func (c Class) String() string {
	if c == ClassProgressive {
		return "progressive"
	}
	return "optimized"
}

// Class returns the rate class this transcode is billed under.
func (o *Options) Class() Class {
	if o.Progressive {
		return ClassProgressive
	}
	return ClassOptimized
}

// Result is one finished transcode.
type Result struct {
	// Data is the re-encoded JPEG stream.
	Data []byte
	// W, H are the output dimensions.
	W, H int
	// FastPath reports that the decode side ran the coefficient-domain
	// DC-only path (baseline input at 1/8): no pixel-domain IDCT
	// executed. The output bytes are identical either way.
	FastPath bool
	// DecodeNs and EncodeNs are the wall-clock cost of the two stages.
	DecodeNs, EncodeNs int64
	// MCUs is the output MCU count under the output subsampling — the
	// denominator of the ns/MCU encode rate observation.
	MCUs int
	// Class is the encode rate class the EncodeNs observation belongs to.
	Class Class
}

// encodeOptions lowers the transcode knobs onto the encoder.
func (o *Options) encodeOptions() jpegcodec.EncodeOptions {
	eo := jpegcodec.EncodeOptions{
		Quality:         o.Quality,
		Subsampling:     o.Subsampling,
		OptimizeHuffman: true,
		Progressive:     o.Progressive,
		Workers:         o.Workers,
	}
	if o.Progressive {
		// Validate() pinned the name to the table already.
		eo.Script, _ = jpegcodec.ScriptByName(o.Script)
	}
	return eo
}

// outputMCUs counts output MCUs for a w×h image under o's subsampling.
func (o *Options) outputMCUs(w, h int) int {
	mcuW, mcuH := o.Subsampling.MCUPixels()
	return ((w + mcuW - 1) / mcuW) * ((h + mcuH - 1) / mcuH)
}

// EncodeImage runs the re-encode stage over an already-decoded image:
// the shared second half of both transcode front ends (the one-shot
// path here and imaged's /transcode handler). fastPath and decodeNs
// describe the decode stage the caller ran.
func EncodeImage(img *jpegcodec.RGBImage, opts Options, fastPath bool, decodeNs int64) (*Result, error) {
	t0 := time.Now()
	data, err := jpegcodec.Encode(img, opts.encodeOptions())
	if err != nil {
		return nil, err
	}
	return &Result{
		Data:     data,
		W:        img.W,
		H:        img.H,
		FastPath: fastPath,
		DecodeNs: decodeNs,
		EncodeNs: time.Since(t0).Nanoseconds(),
		MCUs:     opts.outputMCUs(img.W, img.H),
		Class:    opts.Class(),
	}, nil
}

// Transcode is the one-shot path: scalar decode at scale (DC-only
// coefficient storage when the input allows it), then re-encode.
func Transcode(data []byte, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	d, err := jpegcodec.Open(data, jpegcodec.Options{Scale: opts.Scale})
	if err != nil {
		return nil, err
	}
	img, err := d.Run(opts.Workers)
	if err != nil {
		return nil, err
	}
	decNs := time.Since(t0).Nanoseconds()
	defer img.Release()
	return EncodeImage(img, opts, d.Frame().DCOnly(), decNs)
}

// NaiveThumbnail is the reference the fast path is benchmarked against:
// decode at full resolution, box-average down by opts.Scale in the
// pixel domain, re-encode. It is what a decoder without decode-to-scale
// must do for a thumbnail, and the cost the coefficient-domain path
// avoids. Output dimensions match Transcode at the same scale; pixel
// values differ (box average versus scaled IDCT), which is why the
// conformance suite compares the two in PSNR, not bytes.
func NaiveThumbnail(data []byte, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	full, err := jpegcodec.DecodeScalar(data)
	if err != nil {
		return nil, err
	}
	s := opts.Scale.Denominator()
	img := boxDownsample(full, s)
	if img != full {
		full.Release()
	}
	decNs := time.Since(t0).Nanoseconds()
	defer img.Release()
	return EncodeImage(img, opts, false, decNs)
}

// boxDownsample shrinks src by the integer factor s with a clamped box
// average (edge boxes cover whatever pixels exist). s == 1 returns src.
func boxDownsample(src *jpegcodec.RGBImage, s int) *jpegcodec.RGBImage {
	if s <= 1 {
		return src
	}
	ow := (src.W + s - 1) / s
	oh := (src.H + s - 1) / s
	out := jpegcodec.NewRGBImage(ow, oh)
	for oy := 0; oy < oh; oy++ {
		y0 := oy * s
		y1 := y0 + s
		if y1 > src.H {
			y1 = src.H
		}
		for ox := 0; ox < ow; ox++ {
			x0 := ox * s
			x1 := x0 + s
			if x1 > src.W {
				x1 = src.W
			}
			var rs, gs, bs, n int
			for y := y0; y < y1; y++ {
				row := src.Pix[(y*src.W+x0)*3 : (y*src.W+x1)*3]
				for i := 0; i < len(row); i += 3 {
					rs += int(row[i])
					gs += int(row[i+1])
					bs += int(row[i+2])
					n++
				}
			}
			out.Set(ox, oy, byte((rs+n/2)/n), byte((gs+n/2)/n), byte((bs+n/2)/n))
		}
	}
	return out
}
