// Package color implements JPEG color-space conversion (Algorithm 2 of the
// paper, in libjpeg's fixed-point arithmetic so all execution paths are
// bit-exact), chroma downsampling for the encoder, and the "fancy"
// triangle-filter upsampling of Algorithm 1 for the decoder.
//
// The decoder's three per-row stages, ConvertRow, UpsampleRowH2V1Fancy
// and UpsampleRowH2V2Fancy, run SSE2 kernels on amd64 (kernels_amd64.s;
// SSE2 is the amd64 baseline, so nothing detects or selects them) over
// whole 16-sample chunks and finish the row with the scalar kernels.
// The scalar kernels are plain Go in files without a build tag: the
// whole row on other architectures, the row tail on amd64, and the
// oracle the tests hold the vector kernels to, byte for byte.
//
// A row kernel loads nothing past the end of its input rows and stores
// nothing outside its output row (dst[:3w], out[:2n]). Bands of one
// image convert adjacent rows of one RGB buffer concurrently, so a store
// past the row would be a data race.
package color

const (
	scaleBits = 16
	half      = 1 << (scaleBits - 1)
)

func fix(x float64) int32 { return int32(x*(1<<scaleBits) + 0.5) }

var (
	fix1_40200 = fix(1.40200)
	fix1_77200 = fix(1.77200)
	fix0_71414 = fix(0.71414)
	fix0_34414 = fix(0.34414)

	fix0_29900 = fix(0.29900)
	fix0_58700 = fix(0.58700)
	fix0_11400 = fix(0.11400)
	fix0_16874 = fix(0.16874)
	fix0_33126 = fix(0.33126)
	fix0_50000 = fix(0.50000)
	fix0_41869 = fix(0.41869)
	fix0_08131 = fix(0.08131)
)

func clamp(v int32) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}

// YCbCrToRGB converts one pixel using the JPEG (JFIF) full-range matrix:
//
//	R = Y + 1.402  (Cr-128)
//	G = Y - 0.34414(Cb-128) - 0.71414(Cr-128)
//	B = Y + 1.772  (Cb-128)
//
// Fixed-point arithmetic matches across every decoder mode in this
// repository, so outputs are bit-identical regardless of where the
// conversion runs.
func YCbCrToRGB(y, cb, cr int32) (r, g, b byte) {
	cb -= 128
	cr -= 128
	r = clamp(y + (fix1_40200*cr+half)>>scaleBits)
	g = clamp(y - (fix0_34414*cb+fix0_71414*cr+half)>>scaleBits)
	b = clamp(y + (fix1_77200*cb+half)>>scaleBits)
	return
}

// RGBToYCbCr converts one pixel to JFIF full-range YCbCr. The encoder
// converts whole rows with RGBToYCbCrRow; this is the oracle it is held
// to.
func RGBToYCbCr(r, g, b byte) (y, cb, cr byte) {
	ri, gi, bi := int32(r), int32(g), int32(b)
	y = clamp((fix0_29900*ri + fix0_58700*gi + fix0_11400*bi + half) >> scaleBits)
	cb = clamp(((-fix0_16874*ri - fix0_33126*gi + fix0_50000*bi + half) >> scaleBits) + 128)
	cr = clamp(((fix0_50000*ri - fix0_41869*gi - fix0_08131*bi + half) >> scaleBits) + 128)
	return
}

// yccTab is libjpeg's rgb_ycc_tab: RGBToYCbCr's products per channel
// value, with the rounding half and Cb/Cr's 128<<16 offset folded into
// Cb's blue term, which is also Cr's red term, as in libjpeg. A component
// is then three loads, two adds and a shift.
var yccTab = func() (t struct{ ry, gy, by, rcb, gcb, bcb, gcr, bcr [256]int32 }) {
	for i := int32(0); i < 256; i++ {
		t.ry[i] = fix0_29900 * i
		t.gy[i] = fix0_58700 * i
		t.by[i] = fix0_11400*i + half
		t.rcb[i] = -fix0_16874 * i
		t.gcb[i] = -fix0_33126 * i
		t.bcb[i] = fix0_50000*i + half + 128<<scaleBits
		t.gcr[i] = -fix0_41869 * i
		t.bcr[i] = -fix0_08131 * i
	}
	return t
}()

// RGBToYCbCrRow converts len(y) interleaved RGB pixels from pix (at
// least 3·len(y) bytes) into the y, cb and cr rows, exactly as
// RGBToYCbCr does pixel by pixel.
// Y never leaves [0, 255]. Cb and Cr do in one place each: pure blue
// (pure red) gives Cb (Cr) 256, which RGBToYCbCr clamps to 255; c-c>>8
// does the same for 256 and leaves 0..255 alone, so no clamp is needed.
// TestRGBToYCbCrRowExhaustive checks all 2^24 triples.
func RGBToYCbCrRow(pix, y, cb, cr []byte) {
	t := &yccTab
	n := len(y)
	cb, cr = cb[:n], cr[:n]
	for i := 0; i < n && len(pix) >= 3; i++ {
		r, g, b := pix[0], pix[1], pix[2]
		pix = pix[3:]
		y[i] = byte((t.ry[r] + t.gy[g] + t.by[b]) >> scaleBits)
		c := (t.rcb[r] + t.gcb[g] + t.bcb[b]) >> scaleBits
		cb[i] = byte(c - c>>8)
		c = (t.bcb[r] + t.gcr[g] + t.bcr[b]) >> scaleBits // Cr's red term is Cb's blue term
		cr[i] = byte(c - c>>8)
	}
}

// UpsampleRowH2V1Fancy implements Algorithm 1 of the paper for an entire
// row: it doubles the horizontal resolution of in (length n) into out
// (length 2n) using the libjpeg triangle filter. End pixels replicate.
func UpsampleRowH2V1Fancy(in []byte, out []byte) {
	n := len(in)
	if n == 0 {
		return
	}
	if len(out) < 2*n {
		panic("color: output row too short")
	}
	out = out[:2*n]
	upsampleH2V1Generic(in, out, 0, 1)
	upsampleH2V1Generic(in, out, 1+upsampleH2V1Vec(in, out), n)
}

// upsampleH2V1Generic is the scalar UpsampleRowH2V1Fancy for samples
// [lo, hi) of in. The row's end samples stand in for their missing
// neighbours, which makes out[0] = in[0] and out[2n-1] = in[n-1]. All
// operands are sums of bytes (non-negative), so /4 is >>2.
func upsampleH2V1Generic(in, out []byte, lo, hi int) {
	n := len(in)
	for i := lo; i < hi; i++ {
		c := 3 * int(in[i])
		out[2*i] = byte((c + int(in[max(i-1, 0)]) + 1) >> 2)
		out[2*i+1] = byte((c + int(in[min(i+1, n-1)]) + 2) >> 2)
	}
}

// ChromaRowsH2V2 returns the two chroma rows that output row y of an
// h2v2 upsampling of an h-row plane blends: near, the row y lies in, and
// far, its neighbour on y's side (the row above for even y, below for
// odd), which is near itself at the plane's top and bottom edges.
func ChromaRowsH2V2(y, h int) (near, far int) {
	near = y / 2
	far = near - 1 + 2*(y&1)
	return near, min(max(far, 0), h-1)
}

// UpsampleRowH2V2Fancy produces one full-resolution row of libjpeg's
// h2v2 fancy upsampling from the chroma rows near and far
// (ChromaRowsH2V2): a 3:1 vertical blend v = 3·near + far, then the
// horizontal triangle filter on v. near has n samples, far at least n
// and out at least 2n; it writes out[:2n].
func UpsampleRowH2V2Fancy(near, far, out []byte) {
	n := len(near)
	if n == 0 {
		return
	}
	far, out = far[:n], out[:2*n]
	upsampleH2V2Generic(near, far, out, 0, 1)
	upsampleH2V2Generic(near, far, out, 1+upsampleH2V2Vec(near, far, out), n)
}

// upsampleH2V2Generic is the scalar UpsampleRowH2V2Fancy for samples
// [lo, hi):
//
//	out[2i]   = (3v[i] + v[i-1] + 8) >> 4
//	out[2i+1] = (3v[i] + v[i+1] + 7) >> 4
//
// with v[-1] = v[0], and out[2n-1] = (4v[n-1] + 8) >> 4 at the right
// edge.
func upsampleH2V2Generic(near, far, out []byte, lo, hi int) {
	if lo >= hi {
		return
	}
	n := len(near)
	v := func(i int) int { return 3*int(near[i]) + int(far[i]) }
	l, c := v(max(lo-1, 0)), v(lo)
	for i := lo; i < hi; i++ {
		r, bias := c, 8
		if i+1 < n {
			r, bias = v(i+1), 7
		}
		out[2*i] = byte((3*c + l + 8) >> 4)
		out[2*i+1] = byte((3*c + r + bias) >> 4)
		l, c = c, r
	}
}

// DownsampleRowsH2V1 averages horizontal pairs of one row (encoder side of
// 4:2:2). in has length 2n, out length n.
func DownsampleRowsH2V1(in []byte, out []byte) {
	n := len(out)
	for i := 0; i < n; i++ {
		// libjpeg adds an alternating bias (1,2) to avoid systematic
		// rounding drift; plain +1 rounding is used here for simplicity
		// and is matched by the decoder tests' tolerance.
		out[i] = byte((int(in[2*i]) + int(in[2*i+1]) + 1) >> 1)
	}
}

// DownsampleH2V2 averages 2x2 pixel quads. in is a w*h plane (w,h even),
// out is (w/2)*(h/2).
func DownsampleH2V2(in []byte, w, h int, out []byte) {
	ow := w / 2
	for y := 0; y < h/2; y++ {
		r0 := in[2*y*w:]
		r1 := in[(2*y+1)*w:]
		o := out[y*ow:]
		for x := 0; x < ow; x++ {
			o[x] = byte((int(r0[2*x]) + int(r0[2*x+1]) + int(r1[2*x]) + int(r1[2*x+1]) + 2) >> 2)
		}
	}
}

// UpsampleH2V2Fancy doubles both dimensions of the in plane (w×h) into out
// (2w×2h) with the libjpeg fancy (triangle) filter, one
// UpsampleRowH2V2Fancy per output row.
func UpsampleH2V2Fancy(in []byte, w, h int, out []byte) {
	if w == 0 || h == 0 {
		return
	}
	ow := 2 * w
	for oy := 0; oy < 2*h; oy++ {
		near, far := ChromaRowsH2V2(oy, h)
		UpsampleRowH2V2Fancy(in[near*w:near*w+w], in[far*w:far*w+w], out[oy*ow:oy*ow+ow])
	}
}
