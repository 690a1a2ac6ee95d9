// Package color implements JPEG color-space conversion (Algorithm 2 of the
// paper, in libjpeg's fixed-point arithmetic so all execution paths are
// bit-exact), chroma downsampling for the encoder, and the "fancy"
// triangle-filter upsampling of Algorithm 1 for the decoder.
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
	if n == 1 {
		out[0], out[1] = in[0], in[0]
		return
	}
	// All operands are sums of bytes (non-negative), so /4 is >>2.
	out[0] = in[0]
	out[1] = byte((int(in[0])*3 + int(in[1]) + 2) >> 2)
	for i := 1; i < n-1; i++ {
		c := int(in[i]) * 3
		out[2*i] = byte((c + int(in[i-1]) + 1) >> 2)
		out[2*i+1] = byte((c + int(in[i+1]) + 2) >> 2)
	}
	out[2*n-2] = byte((int(in[n-1])*3 + int(in[n-2]) + 1) >> 2)
	out[2*n-1] = in[n-1]
}

// UpsampleRowH2V1Simple doubles a row by pixel replication (libjpeg's
// non-fancy mode); used as an ablation baseline.
func UpsampleRowH2V1Simple(in []byte, out []byte) {
	for i, v := range in {
		out[2*i] = v
		out[2*i+1] = v
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
// (2w×2h) with the libjpeg fancy (triangle) filter.
func UpsampleH2V2Fancy(in []byte, w, h int, out []byte) {
	if w == 0 || h == 0 {
		return
	}
	ow := 2 * w
	// Vertical interpolation weights are 3:1 between the two nearest
	// input rows; horizontal 3:1 between nearest columns, matching
	// libjpeg's h2v2 fancy upsampler.
	for oy := 0; oy < 2*h; oy++ {
		near := oy / 2
		var far int
		if oy%2 == 0 {
			far = near - 1
		} else {
			far = near + 1
		}
		if far < 0 {
			far = 0
		}
		if far >= h {
			far = h - 1
		}
		rn := in[near*w : near*w+w]
		rf := in[far*w : far*w+w]
		o := out[oy*ow : oy*ow+ow]
		// First column.
		v0 := 3*int(rn[0]) + int(rf[0])
		o[0] = byte((4*v0 + 8) / 16)
		if w == 1 {
			o[1] = o[0]
			continue
		}
		o[1] = byte((3*v0 + (3*int(rn[1]) + int(rf[1])) + 7) / 16)
		for x := 1; x < w-1; x++ {
			c := 3*int(rn[x]) + int(rf[x])
			l := 3*int(rn[x-1]) + int(rf[x-1])
			r := 3*int(rn[x+1]) + int(rf[x+1])
			o[2*x] = byte((3*c + l + 8) / 16)
			o[2*x+1] = byte((3*c + r + 7) / 16)
		}
		c := 3*int(rn[w-1]) + int(rf[w-1])
		l := 3*int(rn[w-2]) + int(rf[w-2])
		o[ow-2] = byte((3*c + l + 8) / 16)
		o[ow-1] = byte((4*c + 8) / 16)
	}
}
