package color

// Table-driven row color conversion: the per-pixel arithmetic of
// YCbCrToRGB with the chroma terms precomputed per 8-bit value, as in
// libjpeg's build_ycc_rgb_table. Each table entry equals the
// corresponding subexpression of YCbCrToRGB exactly, so ConvertRow is
// bit-identical to calling YCbCrToRGB per pixel (asserted by tests);
// the clamp becomes an offset table lookup instead of two branches.

var (
	crToR [256]int32 // (fix1_40200*(cr-128) + half) >> scaleBits
	cbToB [256]int32 // (fix1_77200*(cb-128) + half) >> scaleBits
	crToG [256]int32 // fix0_71414*(cr-128) + half
	cbToG [256]int32 // fix0_34414*(cb-128)

	// clampTab[v+clampOff] = clamp(v) for every value the converter can
	// produce: y in [0,255] plus chroma terms bounded by the tables.
	clampTab [768]byte
)

const clampOff = 256

func init() {
	for v := 0; v < 256; v++ {
		c := int32(v) - 128
		crToR[v] = (fix1_40200*c + half) >> scaleBits
		cbToB[v] = (fix1_77200*c + half) >> scaleBits
		crToG[v] = fix0_71414*c + half
		cbToG[v] = fix0_34414 * c
	}
	for i := range clampTab {
		clampTab[i] = clamp(int32(i - clampOff))
	}
}

// ConvertRow converts w pixels of full-resolution Y/Cb/Cr rows into
// interleaved RGB, bit-identical to per-pixel YCbCrToRGB. It reads the
// first w bytes of each input row and writes dst[:3w] and nothing else.
func ConvertRow(yr, cbr, crr []byte, dst []byte, w int) {
	yr, cbr, crr, dst = yr[:w:w], cbr[:w:w], crr[:w:w], dst[:3*w:3*w]
	n := convertRowVec(yr, cbr, crr, dst, w)
	convertRowGeneric(yr[n:], cbr[n:], crr[n:], dst[3*n:], w-n)
}

// convertRowGeneric is the scalar ConvertRow: the whole row where there
// is no vector kernel, the row tail after one, and the tests' oracle.
func convertRowGeneric(yr, cbr, crr []byte, dst []byte, w int) {
	yr = yr[:w:w]
	cbr = cbr[:w:w]
	crr = crr[:w:w]
	dst = dst[: 3*w : 3*w]
	for x := 0; x < w; x++ {
		y := int32(yr[x])
		cb := cbr[x]
		cr := crr[x]
		d := dst[x*3 : x*3+3 : x*3+3]
		d[0] = clampTab[y+crToR[cr]+clampOff]
		d[1] = clampTab[y-((cbToG[cb]+crToG[cr])>>scaleBits)+clampOff]
		d[2] = clampTab[y+cbToB[cb]+clampOff]
	}
}
