package dct

// Scaled inverse transforms for decode-to-scale: an 8x8 coefficient
// block is reconstructed directly at 4x4 (scale 1/2), 2x2 (1/4) or 1x1
// (1/8) resolution by applying the true N-point inverse DCT to the
// top-left NxN coefficient corner (the higher frequencies cannot be
// represented at the reduced resolution and are discarded). Every
// routine fuses dequantization and writes level-shifted, clamped bytes
// straight into the destination plane, mirroring the full-size fast
// paths in sparse.go.
//
// The normalization keeps the DC interpretation of the full transform:
// the 1x1 and 2x2 kernels reconstruct a DC-only block to exactly
// descale(dc, 3) + 128 — the 1x1 kernel IS the per-block DC mean
// (property-tested) — and the 4x4 kernel matches it to within its
// fixed-point rounding. InverseScaledRef in reference.go is the float
// oracle the integer kernels are property-tested against (within +-1 of
// rounding); every back-phase path calls these same routines, so scaled
// output stays byte-identical across every decoder mode.

// Fixed-point constants for the 4-point pass, scaled by 2^constBits.
//
//	c4 = cos(pi/4)  = 1/sqrt2 (also the C(0) normalization)
//	c1 = cos(pi/8), c3 = cos(3pi/8)
const (
	fixS0_707107 = 5793 // 0.707107 * 2^13
	fixS0_923880 = 7568 // 0.923880 * 2^13
	fixS0_382683 = 3135 // 0.382683 * 2^13
)

// Shifts for the two 4-point passes. Each 1-D pass carries a factor of
// 1/2 beyond the 2^constBits constant scaling; the column pass keeps
// pass1Bits of headroom exactly like the full-size transform.
const (
	scaledPass1Shift = constBits - pass1Bits + 1 // column pass: 2^pass1Bits * (1/2) * value
	scaledFinalShift = constBits + pass1Bits + 1 // row pass: back to samples
)

func descale64(x int64, n uint) int32 {
	return int32((x + (1 << (n - 1))) >> n)
}

// InverseIntScaled1x1Bytes reconstructs a block at 1/8 scale: the single
// output sample is the block's DC mean. dc is the dequantized DC
// coefficient; dst[0] receives the sample.
func InverseIntScaled1x1Bytes(dc int32, dst []byte) {
	dst[0] = byte(clampSample(descale(dc, 3) + 128))
}

// InverseIntScaled2x2DequantBytes reconstructs a block at 1/4 scale from
// the dequantized top-left 2x2 coefficients. The 2-point basis is exact
// in integer arithmetic: out[y][x] = (F00 +-F01 +-F10 +-F11)/8.
func InverseIntScaled2x2DequantBytes(blk []int32, q *[BlockSize]int32, dst []byte, stride int) {
	f00 := blk[0] * q[0]
	f01 := blk[1] * q[1]
	f10 := blk[8] * q[8]
	f11 := blk[9] * q[9]
	s0 := f00 + f10 // row sums of the vertical 2-point pass
	s1 := f00 - f10
	d0 := f01 + f11
	d1 := f01 - f11
	r0 := dst[:2:2]
	r1 := dst[stride : stride+2 : stride+2]
	r0[0] = byte(clampSample(descale(s0+d0, 3) + 128))
	r0[1] = byte(clampSample(descale(s0-d0, 3) + 128))
	r1[0] = byte(clampSample(descale(s1+d1, 3) + 128))
	r1[1] = byte(clampSample(descale(s1-d1, 3) + 128))
}

// scaled4Column runs the 4-point column pass for column c (0..3) over
// the dequantized coefficients f0..f3 (rows 0..3 of that column),
// writing the four intermediate values into ws[c], ws[c+4], ws[c+8],
// ws[c+12] at 2^pass1Bits scaling. Accumulation is int64: dequantized
// coefficients reach 2^19 and the 13-bit constants would overflow the
// int32 product for hostile streams.
func scaled4Column(f0, f1, f2, f3 int64, ws *[16]int32, c int) {
	ePlus := (f0 + f2) * fixS0_707107
	eMinus := (f0 - f2) * fixS0_707107
	o0 := f1*fixS0_923880 + f3*fixS0_382683
	o1 := f1*fixS0_382683 - f3*fixS0_923880
	ws[c] = descale64(ePlus+o0, scaledPass1Shift)
	ws[c+4] = descale64(eMinus+o1, scaledPass1Shift)
	ws[c+8] = descale64(eMinus-o1, scaledPass1Shift)
	ws[c+12] = descale64(ePlus-o0, scaledPass1Shift)
}

// InverseIntScaled4x4DequantBytes reconstructs a block at 1/2 scale from
// the dequantized top-left 4x4 coefficients: a 4-point column pass into
// a 16-entry workspace, then a 4-point row pass writing clamped bytes.
func InverseIntScaled4x4DequantBytes(blk []int32, q *[BlockSize]int32, dst []byte, stride int) {
	var ws [16]int32
	for c := 0; c < 4; c++ {
		f1 := blk[c+8] * q[c+8]
		f2 := blk[c+16] * q[c+16]
		f3 := blk[c+24] * q[c+24]
		f0 := blk[c] * q[c]
		if f1|f2|f3 == 0 {
			// All-AC-zero column shortcut: the butterflies collapse to the
			// same expression with zeros substituted, so output matches
			// the general path exactly.
			v := descale64(int64(f0)*fixS0_707107, scaledPass1Shift)
			ws[c] = v
			ws[c+4] = v
			ws[c+8] = v
			ws[c+12] = v
			continue
		}
		scaled4Column(int64(f0), int64(f1), int64(f2), int64(f3), &ws, c)
	}
	for r := 0; r < 4; r++ {
		w := ws[r*4 : r*4+4 : r*4+4]
		ePlus := int64(w[0]+w[2]) * fixS0_707107
		eMinus := int64(w[0]-w[2]) * fixS0_707107
		o0 := int64(w[1])*fixS0_923880 + int64(w[3])*fixS0_382683
		o1 := int64(w[1])*fixS0_382683 - int64(w[3])*fixS0_923880
		out := dst[r*stride : r*stride+4 : r*stride+4]
		out[0] = byte(clampSample(descale64(ePlus+o0, scaledFinalShift) + 128))
		out[1] = byte(clampSample(descale64(eMinus+o1, scaledFinalShift) + 128))
		out[2] = byte(clampSample(descale64(eMinus-o1, scaledFinalShift) + 128))
		out[3] = byte(clampSample(descale64(ePlus-o0, scaledFinalShift) + 128))
	}
}

// InverseIntScaledDCBytes reconstructs a DC-only block at blockPix 4, 2
// or 1: every scaled sample is flat, computed with exactly the
// arithmetic the general scaled kernel of that size produces when all
// AC terms are zero — the 4-point cascade rounds twice through the
// fixed-point constants, while the 2-point and 1-point forms are the
// exact DC mean — so the NZ-watermark dispatch can never change output
// bytes (property-tested).
func InverseIntScaledDCBytes(dc int32, blockPix int, dst []byte, stride int) {
	var v byte
	if blockPix == 4 {
		col := descale64(int64(dc)*fixS0_707107, scaledPass1Shift)
		v = byte(clampSample(descale64(int64(col)*fixS0_707107, scaledFinalShift) + 128))
	} else {
		v = byte(clampSample(descale(dc, 3) + 128))
	}
	for y := 0; y < blockPix; y++ {
		row := dst[y*stride : y*stride+blockPix : y*stride+blockPix]
		for x := range row {
			row[x] = v
		}
	}
}

// Approximate arithmetic operation counts of the scaled kernels per
// block (dequant + passes + stores); the device cost models scale the
// full-size kernel cost by these.
const (
	OpsPerBlockScaled4 = 4*10 + 4*10 + 16*2 // two 4-point passes + stores
	OpsPerBlockScaled2 = 4 + 8 + 4*2        // dequant + exact butterflies
	OpsPerBlockScaled1 = 4
)

// ScaledOpsPerBlock returns the approximate per-block cost of the
// scaled inverse transform for a given output block size (8 returns the
// full-size OpsPerBlockInt).
func ScaledOpsPerBlock(blockPix int) float64 {
	switch blockPix {
	case 4:
		return OpsPerBlockScaled4
	case 2:
		return OpsPerBlockScaled2
	case 1:
		return OpsPerBlockScaled1
	default:
		return OpsPerBlockInt
	}
}
