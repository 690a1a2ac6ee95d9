package conformance

import (
	"bytes"
	"fmt"
	"image"
	"image/jpeg"
	"strings"
	"sync"
	"testing"

	"hetjpeg/internal/batch"
	"hetjpeg/internal/core"
	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/perfmodel"
	"hetjpeg/internal/platform"
)

// corpusSizes exercise partial MCUs on both axes (97 = 6×16+1,
// 75 = 4×16+11) alongside an aligned size.
var corpusSizes = [][2]int{{97, 75}, {160, 128}}

var (
	corpusOnce  sync.Once
	corpusItems []imagegen.Item
	corpusErr   error
)

// corpus returns the deterministic conformance corpus: baseline items
// over every subsampling (with and without restart intervals) plus the
// full progressive variant grid.
func corpus(t *testing.T) []imagegen.Item {
	t.Helper()
	corpusOnce.Do(func() {
		for _, sub := range []jfif.Subsampling{jfif.Sub444, jfif.Sub422, jfif.Sub420} {
			for _, ri := range []int{0, 5} {
				for si, wh := range corpusSizes {
					for di, detail := range []float64{0.2, 0.85} {
						img := imagegen.Generate(imagegen.Scene{
							Seed:   9000 + int64(int(sub)*100+ri*10+si*2+di),
							Detail: detail,
						}, wh[0], wh[1])
						data, err := jpegcodec.Encode(img, jpegcodec.EncodeOptions{
							Quality:         85,
							Subsampling:     sub,
							RestartInterval: ri,
						})
						if err != nil {
							corpusErr = err
							return
						}
						corpusItems = append(corpusItems, imagegen.Item{
							Name:            fmt.Sprintf("base-%s-rst%d-d%.2f-%dx%d", sub, ri, detail, wh[0], wh[1]),
							Data:            data,
							W:               wh[0],
							H:               wh[1],
							Sub:             sub,
							Detail:          detail,
							RestartInterval: ri,
						})
					}
				}
			}
		}
		prog, err := imagegen.BuildProgressive(corpusSizes, []float64{0.3, 0.9}, 41000)
		if err != nil {
			corpusErr = err
			return
		}
		corpusItems = append(corpusItems, prog...)
	})
	if corpusErr != nil {
		t.Fatalf("building corpus: %v", corpusErr)
	}
	return corpusItems
}

// decodeFrames runs the single-threaded reference decode keeping the
// frame (sample planes) alive for plane-level comparison.
func decodeFrames(t *testing.T, it imagegen.Item) (*jpegcodec.Frame, *jpegcodec.RGBImage) {
	t.Helper()
	f, ed, err := jpegcodec.PrepareDecode(it.Data)
	if err != nil {
		t.Fatalf("%s: parse: %v", it.Name, err)
	}
	if err := ed.DecodeAll(); err != nil {
		t.Fatalf("%s: entropy decode: %v", it.Name, err)
	}
	out := jpegcodec.NewRGBImage(f.Img.Width, f.Img.Height)
	jpegcodec.ParallelPhaseScalar(f, 0, f.MCURows, out)
	return f, out
}

// planeDiff compares one component plane against a stdlib plane,
// returning the max absolute difference, the number of differing
// samples and a short sample of differing coordinates.
func planeDiff(ours []byte, stride int, theirs []byte, theirStride, w, h int) (maxd, count int, where string) {
	var locs []string
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			d := int(ours[y*stride+x]) - int(theirs[y*theirStride+x])
			if d < 0 {
				d = -d
			}
			if d > 0 {
				count++
				if d > maxd {
					maxd = d
				}
				if len(locs) < 5 {
					locs = append(locs, fmt.Sprintf("(%d,%d):%d vs %d", x, y, ours[y*stride+x], theirs[y*theirStride+x]))
				}
			}
		}
	}
	return maxd, count, strings.Join(locs, " ")
}

// stdlibComparable reports whether image/jpeg agrees with T.81 about
// the fixture's restart-marker placement (see the package comment).
func stdlibComparable(it imagegen.Item) bool {
	return !(it.Progressive && it.RestartInterval > 0 && it.Sub != jfif.Sub444)
}

// stdlibTolerance is the documented bound on per-sample divergence from
// image/jpeg: entropy decoding is exact on both sides, so the only
// difference is integer IDCT rounding (±1), for baseline and
// progressive alike.
const stdlibTolerance = 1

// TestConformanceStdlibDifferential decodes every corpus file with both
// hetjpeg and image/jpeg and compares the reconstructed YCbCr planes.
func TestConformanceStdlibDifferential(t *testing.T) {
	for _, it := range corpus(t) {
		it := it
		t.Run(it.Name, func(t *testing.T) {
			if !stdlibComparable(it) {
				t.Skipf("restart intervals in subsampled non-interleaved scans: image/jpeg counts frame MCUs, T.81 counts data units")
			}
			f, out := decodeFrames(t, it)
			defer f.Release()
			defer out.Release()

			std, err := jpeg.Decode(bytes.NewReader(it.Data))
			if err != nil {
				t.Fatalf("image/jpeg rejects fixture: %v", err)
			}
			ycc, ok := std.(*image.YCbCr)
			if !ok {
				t.Fatalf("image/jpeg returned %T, want *image.YCbCr", std)
			}

			names := []string{"Y", "Cb", "Cr"}
			theirs := [][]byte{ycc.Y, ycc.Cb, ycc.Cr}
			strides := []int{ycc.YStride, ycc.CStride, ycc.CStride}
			for c := range f.Planes {
				p := f.Planes[c]
				maxd, count, where := planeDiff(f.Samples[c], p.PlaneW(), theirs[c], strides[c], p.CompW, p.CompH)
				if maxd > stdlibTolerance {
					t.Errorf("%s plane: %d samples differ, max |diff| = %d (tolerance %d); first: %s",
						names[c], count, maxd, stdlibTolerance, where)
				}
			}
		})
	}
}

var conformSpec = platform.ByName("GTX 560")

var (
	modelOnce sync.Once
	model     *perfmodel.Model
	modelErr  error
)

func trainedModel(t *testing.T) *perfmodel.Model {
	t.Helper()
	// The committed fit drives the SPS/PPS split decisions; every split
	// must produce identical pixels, which is the property under test.
	modelOnce.Do(func() { model, modelErr = perfmodel.Default(conformSpec) })
	if modelErr != nil {
		t.Fatalf("training model: %v", modelErr)
	}
	return model
}

// TestConformanceModesIdentical decodes every corpus file under all six
// execution modes, and through the multi-worker scalar back phase, and
// asserts the RGB output is byte-identical to the scalar reference.
func TestConformanceModesIdentical(t *testing.T) {
	m := trainedModel(t)
	for _, it := range corpus(t) {
		it := it
		t.Run(it.Name, func(t *testing.T) {
			_, ref := decodeFrames(t, it)
			defer ref.Release()
			for _, mode := range core.AllModes() {
				res, err := core.Decode(it.Data, core.Options{
					Mode:  mode,
					Spec:  conformSpec,
					Model: m,
				})
				if err != nil {
					t.Fatalf("mode %v: %v", mode, err)
				}
				if !bytes.Equal(res.Image.Pix, ref.Pix) {
					t.Errorf("mode %v: pixels differ from scalar reference%s",
						mode, firstPixelDiff(res.Image, ref))
				}
				if res.Stats.EntropyScans > 1 != it.Progressive {
					t.Errorf("mode %v: EntropyScans = %d, progressive = %v", mode, res.Stats.EntropyScans, it.Progressive)
				}
				res.Release()
			}
			checkScalarWorkers(t, it, jpegcodec.Scale1, ref)
		})
	}
}

// checkScalarWorkers asserts that the banded scalar back phase the
// transcoder runs (jpegcodec.Open and Run) matches ref at one and at
// several workers.
func checkScalarWorkers(t *testing.T, it imagegen.Item, scale jpegcodec.Scale, ref *jpegcodec.RGBImage) {
	t.Helper()
	for _, w := range []int{1, 3} {
		d, err := jpegcodec.Open(it.Data, jpegcodec.Options{Scale: scale})
		if err != nil {
			t.Fatalf("scale %v workers %d: %v", scale, w, err)
		}
		img, err := d.Run(w)
		if err != nil {
			t.Fatalf("scale %v workers %d: %v", scale, w, err)
		}
		if !bytes.Equal(img.Pix, ref.Pix) {
			t.Errorf("scale %v workers %d: pixels differ from scalar reference%s",
				scale, w, firstPixelDiff(img, ref))
		}
		img.Release()
	}
}

// TestConformanceSchedulersWorkers decodes the whole corpus as batches
// through the band scheduler at worker counts 1..8 and asserts
// every image is byte-identical to the scalar reference.
func TestConformanceSchedulersWorkers(t *testing.T) {
	items := corpus(t)
	datas := make([][]byte, len(items))
	refs := make([]*jpegcodec.RGBImage, len(items))
	for i, it := range items {
		datas[i] = it.Data
		_, refs[i] = decodeFrames(t, it)
	}
	workerCounts := []int{1, 2, 3, 5, 8}
	if testing.Short() {
		workerCounts = []int{1, 4}
	}
	for _, workers := range workerCounts {
		name := fmt.Sprintf("w%d", workers)
		res, err := batch.Decode(datas, batch.Options{
			Spec:    conformSpec,
			Workers: workers,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, ir := range res.Images {
			if ir.Err != nil {
				t.Errorf("%s: image %s failed: %v", name, items[i].Name, ir.Err)
				continue
			}
			if !bytes.Equal(ir.Res.Image.Pix, refs[i].Pix) {
				t.Errorf("%s: image %s differs from scalar reference%s",
					name, items[i].Name, firstPixelDiff(ir.Res.Image, refs[i]))
			}
			ir.Res.Release()
		}
	}
}

// firstPixelDiff renders a short report of the first differing pixels.
func firstPixelDiff(got, want *jpegcodec.RGBImage) string {
	if got.W != want.W || got.H != want.H {
		return fmt.Sprintf(" (dimensions %dx%d vs %dx%d)", got.W, got.H, want.W, want.H)
	}
	var locs []string
	for y := 0; y < got.H && len(locs) < 5; y++ {
		for x := 0; x < got.W && len(locs) < 5; x++ {
			gr, gg, gb := got.At(x, y)
			wr, wg, wb := want.At(x, y)
			if gr != wr || gg != wg || gb != wb {
				locs = append(locs, fmt.Sprintf("(%d,%d): got %d,%d,%d want %d,%d,%d", x, y, gr, gg, gb, wr, wg, wb))
			}
		}
	}
	if locs == nil {
		return ""
	}
	return "; first: " + strings.Join(locs, " ")
}
