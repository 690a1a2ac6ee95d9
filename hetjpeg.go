// Package hetjpeg is a heterogeneous JPEG decoder: a from-scratch
// reproduction of "Dynamic Partitioning-based JPEG Decompression on
// Heterogeneous Multicore Architectures" (Sodsong et al., PMAM/PPoPP
// 2014) in pure Go.
//
// The library contains a complete baseline JPEG codec (encoder and
// decoder, 4:4:4 / 4:2:2 / 4:2:0 / grayscale), a simulated
// OpenCL-programmable GPU whose cost model prices the paper's kernels in
// virtual time, an offline-profiled
// performance model (multivariate polynomial regression over image
// width, height and entropy density), and the paper's dynamic
// partitioning schemes (SPS and PPS) that split each image between a CPU
// and the device so both finish together.
//
// Quick start:
//
//	spec := hetjpeg.PlatformByName("GTX 560")
//	model, _ := hetjpeg.DefaultModel(spec) // the committed offline fit
//	res, _ := hetjpeg.Decode(jpegBytes, hetjpeg.Options{
//		Mode:  hetjpeg.ModePPS,
//		Spec:  spec,
//		Model: model,
//	})
//	img := res.Image // interleaved RGB
//
// Every mode's pixels come from the one scalar back phase, so they are
// bit-identical; modes differ only in scheduling, which the returned
// virtual timeline records. No kernel executes on the simulated device:
// kernels.CostPlan prices each launch from the frame's geometry.
package hetjpeg

import (
	"context"
	"image"
	"runtime"

	"hetjpeg/internal/batch"
	"hetjpeg/internal/core"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/perfmodel"
	"hetjpeg/internal/platform"
	"hetjpeg/internal/transcode"
)

// Mode selects the execution strategy.
type Mode = core.Mode

// The six decoder modes of the paper's evaluation, plus ModeAuto (the
// zero value), which resolves to ModePPS when a model is available and
// ModePipelinedGPU otherwise.
const (
	ModeAuto         = core.ModeAuto
	ModeSequential   = core.ModeSequential
	ModeSIMD         = core.ModeSIMD
	ModeGPU          = core.ModeGPU
	ModePipelinedGPU = core.ModePipelinedGPU
	ModeSPS          = core.ModeSPS
	ModePPS          = core.ModePPS
)

// AllModes lists the modes in the paper's order.
func AllModes() []Mode { return core.AllModes() }

// ParseMode maps a mode name ("auto", "sequential", "simd", "gpu",
// "pipeline", "sps", "pps") to its Mode; ok is false for unknown names.
// Frontends should parse with this so the name set has one
// authoritative site.
func ParseMode(name string) (Mode, bool) {
	if name == ModeAuto.String() {
		return ModeAuto, true
	}
	for _, m := range AllModes() {
		if m.String() == name {
			return m, true
		}
	}
	return ModeAuto, false
}

// Platform describes one simulated CPU-GPU machine (Table 1).
type Platform = platform.Spec

// Platforms returns the three machines of the paper's evaluation.
func Platforms() []*Platform { return platform.All() }

// PlatformByName returns a machine by its Table 1 name ("GT 430",
// "GTX 560", "GTX 680"), or nil.
func PlatformByName(name string) *Platform { return platform.ByName(name) }

// Model is a fitted per-platform performance model.
type Model = perfmodel.Model

// DefaultModel returns the committed performance model of a Table 1
// machine or of the Embedded what-if machine: the offline profiling
// step (corpus profiling, regression fit, chunk-size selection) was run
// once by `repro fit` for all four and its result is embedded in the
// library. Every caller shares the returned model. Other platforms have
// no committed model.
func DefaultModel(spec *Platform) (*Model, error) { return perfmodel.Default(spec) }

// Options configures a decode. Spec is required; Model is required for
// ModeSPS and ModePPS.
type Options = core.Options

// Result is a finished decode: the RGB image, the frame's geometry and
// statistics and, when the decode was priced (Decode, DecodeBatch), the
// virtual timeline of its schedule. A BatchExecutor's results are not
// priced: their Timeline is nil and TotalNs zero.
type Result = core.Result

// Image is an interleaved 8-bit RGB image.
type Image = jpegcodec.RGBImage

// ErrUnsupported marks structurally valid JPEG streams that use a
// feature outside the decoder's scope (12-bit precision, arithmetic
// coding, hierarchical frames, exotic sampling layouts). Check it with
// errors.Is to answer "unsupported media" instead of "corrupt stream";
// note that progressive (SOF2) streams are fully supported and decode
// like any baseline image.
var ErrUnsupported = jfif.ErrUnsupported

// Scale selects decode-to-scale: Options.Scale (and BatchOptions.Scale)
// reconstructs the image directly at 1/2, 1/4 or 1/8 of its coded
// resolution through scaled inverse transforms — the thumbnail/fit-to-
// screen workload — never by decoding full-size and shrinking. The zero
// value decodes full size. Every mode produces byte-identical scaled
// pixels.
type Scale = jpegcodec.Scale

// The supported decode scales.
const (
	Scale1 = jpegcodec.Scale1
	Scale2 = jpegcodec.Scale2
	Scale4 = jpegcodec.Scale4
	Scale8 = jpegcodec.Scale8
)

// ErrUnsupportedScale marks a decode request whose Scale is not one of
// {1, 1/2, 1/4, 1/8}; check it with errors.Is.
var ErrUnsupportedScale = jpegcodec.ErrUnsupportedScale

// ErrPartialData marks a salvaged decode (Options.Salvage): pixels were
// produced, but part of the stream was lost to corruption or
// truncation. Decode returns it *alongside* a usable Result whose
// Salvage report describes the damage; check it with errors.Is to
// distinguish "degraded but displayable" from a total failure (Result
// nil).
var ErrPartialData = jpegcodec.ErrPartialData

// SalvageReport accounts for a salvage-mode decode: total and recovered
// MCU counts, resynchronization count, the damaged regions and every
// absorbed error. Result.Salvage carries one when the decode was
// impaired.
type SalvageReport = jpegcodec.SalvageReport

// DamagedRegion is one contiguous run of MCUs (raster order) whose
// coefficients were lost and zeroed.
type DamagedRegion = jpegcodec.DamagedRegion

// ScanError is one absorbed error with the entropy scan it occurred in
// (-1 for container-level parse errors).
type ScanError = jpegcodec.ScanError

// ParseScale maps a scale name ("1", "1/2", "1/4", "1/8", or the bare
// denominators "2", "4", "8"; "" means full size) to its Scale; ok is
// false for unknown names. Frontends should parse with this so the name
// set has one authoritative site.
func ParseScale(name string) (Scale, bool) { return jpegcodec.ParseScale(name) }

// Decode decompresses a baseline or progressive JPEG stream under the
// given mode. With Options.Salvage set, a corrupt-but-recoverable
// stream returns BOTH a usable Result (Result.Salvage describes the
// damage) and an error wrapping ErrPartialData; every mode renders a
// salvaged stream to byte-identical pixels, exactly like a clean one.
func Decode(data []byte, opts Options) (*Result, error) { return core.Decode(data, opts) }

// DecodeRGB is the convenience path: a wall-clock decode with no
// platform simulation, on up to GOMAXPROCS cores. A baseline stream
// pipelines inside the image: the caller entropy-decodes MCU rows while
// the other cores run the back phase (IDCT, upsampling, colour) on each
// band of rows already decoded, the handoff the batch executor's band
// scheduler also runs. Pixels are those of the sequential reference.
func DecodeRGB(data []byte) (*Image, error) { return DecodeRGBScaled(data, Scale1) }

// DecodeRGBScaled is DecodeRGB at a decode scale; pixels are those of
// the scalar scaled reference.
func DecodeRGBScaled(data []byte, scale Scale) (*Image, error) {
	d, err := jpegcodec.Open(data, jpegcodec.Options{Scale: scale})
	if err != nil {
		return nil, err
	}
	return d.Run(runtime.GOMAXPROCS(0))
}

// Subsampling selects the encoder's chroma layout.
type Subsampling = jfif.Subsampling

// Chroma subsampling layouts supported end to end.
const (
	Sub444 = jfif.Sub444
	Sub422 = jfif.Sub422
	Sub420 = jfif.Sub420
)

// EncodeOptions configures the encoder (baseline by default; set
// Progressive for a multi-scan SOF2 stream).
type EncodeOptions = jpegcodec.EncodeOptions

// ScanSpec describes one scan of a progressive encode script.
type ScanSpec = jpegcodec.ScanSpec

// ScriptByName resolves a named progressive scan script ("default",
// "spectral", "multiband", "deepsa"; "" means default) from the one
// authoritative table; ok is false for unknown names.
func ScriptByName(name string) ([]ScanSpec, bool) { return jpegcodec.ScriptByName(name) }

// ScriptNames returns the accepted progressive scan-script names.
func ScriptNames() []string { return jpegcodec.ScriptNames() }

// TranscodeOptions configures Transcode: decode scale, output quality,
// progressive output with a named scan script, output subsampling and
// intra-image parallelism.
type TranscodeOptions = transcode.Options

// TranscodeResult is one finished transcode: the re-encoded stream plus
// stage accounting (and whether the coefficient-domain DC-only fast
// path served the decode).
type TranscodeResult = transcode.Result

// ErrBadTranscodeOptions marks a transcode refused for invalid knobs;
// check it with errors.Is to distinguish a caller error from a corrupt
// input stream.
var ErrBadTranscodeOptions = transcode.ErrBadOptions

// Transcode re-encodes a JPEG stream: decode (optionally directly at
// 1/2, 1/4 or 1/8 scale), then encode with optimal Huffman tables under
// the given knobs. A baseline input at 1/8 runs the coefficient-domain
// fast path — DC-only storage, no pixel-domain IDCT — and still emits
// bytes identical to the general pixel path.
func Transcode(data []byte, opts TranscodeOptions) (*TranscodeResult, error) {
	return transcode.Transcode(data, opts)
}

// Encode compresses an RGB image into a JPEG stream.
func Encode(img *Image, opts EncodeOptions) ([]byte, error) { return jpegcodec.Encode(img, opts) }

// NewImage allocates a w x h RGB image.
func NewImage(w, h int) *Image { return jpegcodec.NewRGBImage(w, h) }

// ToStdImage converts an Image to the standard library's RGBA type.
func ToStdImage(im *Image) *image.RGBA {
	out := image.NewRGBA(image.Rect(0, 0, im.W, im.H))
	for y := 0; y < im.H; y++ {
		src := im.Pix[y*im.W*3 : (y+1)*im.W*3]
		dst := out.Pix[y*out.Stride : y*out.Stride+im.W*4]
		for x := 0; x < im.W; x++ {
			dst[x*4], dst[x*4+1], dst[x*4+2], dst[x*4+3] = src[x*3], src[x*3+1], src[x*3+2], 255
		}
	}
	return out
}

// FromStdImage converts any standard image to an Image.
func FromStdImage(src image.Image) *Image {
	b := src.Bounds()
	out := jpegcodec.NewRGBImage(b.Dx(), b.Dy())
	for y := 0; y < out.H; y++ {
		for x := 0; x < out.W; x++ {
			r, g, bb, _ := src.At(b.Min.X+x, b.Min.Y+y).RGBA()
			out.Set(x, y, byte(r>>8), byte(g>>8), byte(bb>>8))
		}
	}
	return out
}

// BatchOptions configures DecodeBatch and NewBatchExecutor. Workers
// bounds wall-clock concurrency (0 = GOMAXPROCS) and Model seeds the
// scheduler's calibrator. Spec (required by DecodeBatch) and Mode are
// what DecodeBatch prices each image under; a BatchExecutor ignores
// both.
type BatchOptions = batch.Options

// BatchResult is the outcome of DecodeBatch.
type BatchResult = batch.Result

// BatchImageResult is one image of a batch. Its Err field isolates that
// image's failure: a corrupt JPEG never aborts the batch. Under
// BatchOptions.Salvage a partially recovered image carries both a
// usable Res and an Err wrapping ErrPartialData; Res == nil is the true
// failure condition.
type BatchImageResult = batch.ImageResult

// BatchExecutor is a long-lived concurrent decode service over the
// band scheduler. Decode waits for one image (the call a request
// handler makes); Submit/Results stream many in completion order. Each
// image's back-phase bands start as soon as its entropy stage has
// decoded their rows, so a lone image on several workers costs about
// the larger of its two stages, not their sum.
// Beside them it offers the service-robustness surface cmd/imaged is
// built on: QueueStats (occupancy + calibrated rates for Retry-After
// arithmetic) and Stop (abandonment-safe shutdown that never leaks
// workers).
type BatchExecutor = batch.Executor

// BatchQueueStats is a point-in-time snapshot of a BatchExecutor's
// admission occupancy and calibrated ns/MCU rates.
type BatchQueueStats = batch.QueueStats

// ErrBatchClosed marks a submission to a closed BatchExecutor; check it
// with errors.Is.
var ErrBatchClosed = batch.ErrClosed

// NewBatchExecutor starts a band scheduler that decodes submitted images
// concurrently on the wall clock. It simulates nothing: its results
// carry pixels and frame statistics, not a virtual timeline.
func NewBatchExecutor(opts BatchOptions) (*BatchExecutor, error) {
	return batch.NewExecutor(opts)
}

// DecodeBatch decodes a stream of images with the pipelined band
// scheduler (wall-clock concurrency: entropy decoding of in-flight
// images overlapped with work-stolen back-phase bands from all of
// them, each band handed over as soon as its rows are decoded), then
// prices each delivered image's schedule under BatchOptions.Mode on
// BatchOptions.Spec, exactly as Decode would, for the paper's
// virtual-time story: the merged timeline overlaps each image's
// CPU-side entropy decoding with the previous image's device work —
// the gallery/browser workload the paper's introduction motivates.
// Per-image scheduling uses PPS when a model is provided. Decode
// failures are isolated per image in BatchImageResult.Err; the
// returned error covers configuration problems only.
func DecodeBatch(datas [][]byte, opts BatchOptions) (*BatchResult, error) {
	return batch.Decode(datas, opts)
}

// DecodeBatchContext is DecodeBatch with cancellation: images not yet
// decoded when ctx is cancelled report ctx.Err() in their slot, while
// images that completed first are still delivered — every slot carries
// a result or an error, never neither.
func DecodeBatchContext(ctx context.Context, datas [][]byte, opts BatchOptions) (*BatchResult, error) {
	return batch.DecodeContext(ctx, datas, opts)
}
