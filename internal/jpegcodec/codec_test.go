package jpegcodec

import (
	"bytes"
	"image"
	stdjpeg "image/jpeg"
	"math"
	"math/rand"
	"testing"

	"hetjpeg/internal/jfif"
)

// makeTestImage builds a deterministic smooth photographic-ish RGB image
// (gradients plus low-frequency waves). Chroma varies slowly, so
// subsampling loss stays small and fidelity checks are meaningful.
func makeTestImage(w, h int, seed int64) *RGBImage {
	img := NewRGBImage(w, h)
	s := float64(seed%7 + 1)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			fx, fy := float64(x), float64(y)
			r := byte(128 + 80*math.Sin(fx/17/s) + 40*math.Sin(fy/23))
			g := byte(128 + 70*math.Sin((fx+fy)/29) + 30*math.Cos(fy/13/s))
			b := byte(128 + 90*math.Cos(fx/31) + 20*math.Sin(fy/7))
			img.Set(x, y, r, g, b)
		}
	}
	return img
}

// makeNoisyImage builds a high-entropy image (per-pixel noise) for tests
// exercising the entropy coder; fidelity comparisons do not use it.
func makeNoisyImage(w, h int, seed int64) *RGBImage {
	rng := rand.New(rand.NewSource(seed))
	img := NewRGBImage(w, h)
	for i := range img.Pix {
		img.Pix[i] = byte(rng.Intn(256))
	}
	return img
}

// meanAbsErr compares our RGBImage with a stdlib-decoded image.
func meanAbsErr(t *testing.T, a *RGBImage, b image.Image) float64 {
	t.Helper()
	bounds := b.Bounds()
	if bounds.Dx() != a.W || bounds.Dy() != a.H {
		t.Fatalf("dimension mismatch: %dx%d vs %dx%d", a.W, a.H, bounds.Dx(), bounds.Dy())
	}
	var sum float64
	for y := 0; y < a.H; y++ {
		for x := 0; x < a.W; x++ {
			r0, g0, b0 := a.At(x, y)
			r1, g1, b1, _ := b.At(bounds.Min.X+x, bounds.Min.Y+y).RGBA()
			sum += math.Abs(float64(r0) - float64(r1>>8))
			sum += math.Abs(float64(g0) - float64(g1>>8))
			sum += math.Abs(float64(b0) - float64(b1>>8))
		}
	}
	return sum / float64(a.W*a.H*3)
}

func TestEncodeDecodableByStdlib(t *testing.T) {
	for _, sub := range []jfif.Subsampling{jfif.Sub444, jfif.Sub422, jfif.Sub420} {
		for _, dim := range [][2]int{{64, 64}, {17, 23}, {128, 48}, {33, 1}, {1, 33}} {
			img := makeTestImage(dim[0], dim[1], 42)
			data, err := Encode(img, EncodeOptions{Quality: 90, Subsampling: sub})
			if err != nil {
				t.Fatalf("%v %v: Encode: %v", sub, dim, err)
			}
			decoded, err := stdjpeg.Decode(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("%v %v: stdlib decode: %v", sub, dim, err)
			}
			if mae := meanAbsErr(t, img, decoded); mae > 6 {
				t.Errorf("%v %v: mean abs error vs stdlib %f too high", sub, dim, mae)
			}
		}
	}
}

func TestDecodeScalarMatchesStdlibOnOwnOutput(t *testing.T) {
	for _, sub := range []jfif.Subsampling{jfif.Sub444, jfif.Sub422, jfif.Sub420} {
		img := makeTestImage(97, 61, 7)
		data, err := Encode(img, EncodeOptions{Quality: 85, Subsampling: sub})
		if err != nil {
			t.Fatalf("%v: Encode: %v", sub, err)
		}
		ours, err := DecodeScalar(data)
		if err != nil {
			t.Fatalf("%v: DecodeScalar: %v", sub, err)
		}
		std, err := stdjpeg.Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%v: stdlib: %v", sub, err)
		}
		// Different IDCT/upsampling rounding: stay within a small mean
		// error and a moderate max error.
		if mae := meanAbsErr(t, ours, std); mae > 2.0 {
			t.Errorf("%v: mean abs error vs stdlib = %f", sub, mae)
		}
	}
}

func TestDecodeScalarRoundTripQuality(t *testing.T) {
	// Encode at high quality and verify our decoder reconstructs close
	// to the original pixels.
	img := makeTestImage(128, 96, 9)
	for _, sub := range []jfif.Subsampling{jfif.Sub444, jfif.Sub422, jfif.Sub420} {
		data, err := Encode(img, EncodeOptions{Quality: 95, Subsampling: sub})
		if err != nil {
			t.Fatal(err)
		}
		out, err := DecodeScalar(data)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for i := range img.Pix {
			d := float64(img.Pix[i]) - float64(out.Pix[i])
			sum += d * d
		}
		rmse := math.Sqrt(sum / float64(len(img.Pix)))
		if rmse > 12 {
			t.Errorf("%v: RMSE %f too high for q95", sub, rmse)
		}
	}
}

func TestDecodeStdlibEncoderOutput(t *testing.T) {
	// stdlib encodes 4:2:0; our decoder must handle it.
	img := makeTestImage(90, 70, 3)
	rgba := image.NewRGBA(image.Rect(0, 0, img.W, img.H))
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			r, g, b := img.At(x, y)
			i := rgba.PixOffset(x, y)
			rgba.Pix[i], rgba.Pix[i+1], rgba.Pix[i+2], rgba.Pix[i+3] = r, g, b, 255
		}
	}
	var buf bytes.Buffer
	if err := stdjpeg.Encode(&buf, rgba, &stdjpeg.Options{Quality: 90}); err != nil {
		t.Fatal(err)
	}
	ours, err := DecodeScalar(buf.Bytes())
	if err != nil {
		t.Fatalf("decoding stdlib output: %v", err)
	}
	std, err := stdjpeg.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if mae := meanAbsErr(t, ours, std); mae > 2.0 {
		t.Errorf("mean abs error vs stdlib = %f", mae)
	}
}

func TestRestartIntervals(t *testing.T) {
	img := makeTestImage(160, 120, 5)
	plain, err := Encode(img, EncodeOptions{Quality: 80, Subsampling: jfif.Sub422})
	if err != nil {
		t.Fatal(err)
	}
	rst, err := Encode(img, EncodeOptions{Quality: 80, Subsampling: jfif.Sub422, RestartInterval: 3})
	if err != nil {
		t.Fatal(err)
	}
	a, err := DecodeScalar(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeScalar(rst)
	if err != nil {
		t.Fatalf("decode with restarts: %v", err)
	}
	if !bytes.Equal(a.Pix, b.Pix) {
		t.Error("restart-interval stream decodes differently")
	}
	// stdlib agrees too.
	if _, err := stdjpeg.Decode(bytes.NewReader(rst)); err != nil {
		t.Fatalf("stdlib rejects restart stream: %v", err)
	}
}

func TestOptimizedHuffmanSmallerAndIdentical(t *testing.T) {
	img := makeTestImage(200, 150, 8)
	std, err := Encode(img, EncodeOptions{Quality: 85, Subsampling: jfif.Sub422})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Encode(img, EncodeOptions{Quality: 85, Subsampling: jfif.Sub422, OptimizeHuffman: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(opt) >= len(std) {
		t.Errorf("optimized stream (%d bytes) not smaller than standard (%d bytes)", len(opt), len(std))
	}
	a, err := DecodeScalar(std)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeScalar(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Pix, b.Pix) {
		t.Error("optimized-table stream decodes to different pixels")
	}
}

func TestChunkedEntropyDecodeMatchesFull(t *testing.T) {
	img := makeTestImage(128, 128, 11)
	data, err := Encode(img, EncodeOptions{Quality: 80, Subsampling: jfif.Sub422})
	if err != nil {
		t.Fatal(err)
	}
	// Full decode.
	fFull, edFull, err := PrepareDecode(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := edFull.DecodeAll(); err != nil {
		t.Fatal(err)
	}
	// Chunked decode, 3 rows at a time.
	fChunk, edChunk, err := PrepareDecode(data)
	if err != nil {
		t.Fatal(err)
	}
	for !edChunk.Done() {
		if _, err := edChunk.DecodeRows(3); err != nil {
			t.Fatal(err)
		}
	}
	for c := range fFull.Coeff {
		for i := range fFull.Coeff[c] {
			if fFull.Coeff[c][i] != fChunk.Coeff[c][i] {
				t.Fatalf("component %d coefficient %d differs", c, i)
			}
		}
	}
	// Bit accounting must cover the whole entropy segment.
	if len(edChunk.BitsPerRow) != fChunk.MCURows {
		t.Fatalf("BitsPerRow has %d entries want %d", len(edChunk.BitsPerRow), fChunk.MCURows)
	}
	var total int64
	for _, b := range edChunk.BitsPerRow {
		if b <= 0 {
			t.Fatal("non-positive bits for an MCU row")
		}
		total += b
	}
	if total > int64(len(fChunk.Img.EntropyData))*8 {
		t.Fatalf("accounted bits %d exceed segment size %d bits", total, len(fChunk.Img.EntropyData)*8)
	}
}

func TestEntropyDensity(t *testing.T) {
	img := makeTestImage(64, 64, 2)
	data, err := Encode(img, EncodeOptions{Quality: 75, Subsampling: jfif.Sub444})
	if err != nil {
		t.Fatal(err)
	}
	im, err := jfif.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	d := im.EntropyDensity()
	if d <= 0 || d > 8 {
		t.Fatalf("implausible entropy density %f", d)
	}
}

func TestGrayscaleDecode(t *testing.T) {
	// stdlib can encode grayscale; verify our decoder path.
	gray := image.NewGray(image.Rect(0, 0, 40, 30))
	for i := range gray.Pix {
		gray.Pix[i] = byte(i * 7 % 256)
	}
	var buf bytes.Buffer
	if err := stdjpeg.Encode(&buf, gray, &stdjpeg.Options{Quality: 90}); err != nil {
		t.Fatal(err)
	}
	ours, err := DecodeScalar(buf.Bytes())
	if err != nil {
		t.Fatalf("grayscale decode: %v", err)
	}
	std, err := stdjpeg.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if mae := meanAbsErr(t, ours, std); mae > 1.5 {
		t.Errorf("grayscale mean abs error = %f", mae)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0xFF},
		{0x00, 0x01, 0x02},
		{0xFF, 0xD8},             // SOI only
		{0xFF, 0xD8, 0xFF, 0xD9}, // SOI+EOI, no scan
	}
	for i, c := range cases {
		if _, err := jfif.Parse(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestFrameGeometry(t *testing.T) {
	img := makeTestImage(100, 50, 1)
	data, err := Encode(img, EncodeOptions{Quality: 75, Subsampling: jfif.Sub422})
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := PrepareDecode(data)
	if err != nil {
		t.Fatal(err)
	}
	if f.MCUWidth != 16 || f.MCUHeight != 8 {
		t.Fatalf("MCU = %dx%d want 16x8", f.MCUWidth, f.MCUHeight)
	}
	if f.MCUsPerRow != 7 { // ceil(100/16)
		t.Fatalf("MCUsPerRow=%d want 7", f.MCUsPerRow)
	}
	if f.MCURows != 7 { // ceil(50/8)
		t.Fatalf("MCURows=%d want 7", f.MCURows)
	}
	if got := f.Planes[0].BlocksPerRow; got != 14 {
		t.Fatalf("luma BlocksPerRow=%d want 14", got)
	}
	if got := f.Planes[1].BlocksPerRow; got != 7 {
		t.Fatalf("chroma BlocksPerRow=%d want 7", got)
	}
	// Transfer sizing sanity: one MCU row = 14 luma + 7 Cb + 7 Cr blocks,
	// 64 coefficients each, 2 bytes per coefficient on the wire.
	if b := f.CoeffBytes(0, 1); b != (14+7+7)*64*2 {
		t.Fatalf("CoeffBytes(0,1)=%d want %d", b, (14+7+7)*64*2)
	}
	r0, r1 := f.PixelRows(6, 7)
	if r0 != 48 || r1 != 50 {
		t.Fatalf("PixelRows(6,7)=(%d,%d) want (48,50)", r0, r1)
	}
}

func BenchmarkEncode1MP(b *testing.B) {
	img := makeTestImage(1024, 1024, 1)
	b.SetBytes(int64(len(img.Pix)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(img, EncodeOptions{Quality: 85, Subsampling: jfif.Sub422}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncode1MPTranscode encodes with the transcoder's settings:
// 4:4:4 with optimised tables, baseline and progressive.
func BenchmarkEncode1MPTranscode(b *testing.B) {
	img := makeTestImage(1024, 1024, 1)
	for _, c := range []struct {
		name        string
		progressive bool
	}{{"baseline", false}, {"progressive", true}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(img.Pix)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Encode(img, EncodeOptions{Quality: 80, OptimizeHuffman: true, Progressive: c.progressive}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecodeScalar1MP(b *testing.B) {
	img := makeTestImage(1024, 1024, 1)
	data, err := Encode(img, EncodeOptions{Quality: 85, Subsampling: jfif.Sub422})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(img.Pix)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeScalar(data); err != nil {
			b.Fatal(err)
		}
	}
}
