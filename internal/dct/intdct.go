// Package dct implements the 8x8 forward and inverse discrete cosine
// transforms used by JPEG: an accurate integer implementation (the
// "islow" algorithm, used as the canonical bit-exact path for every
// decoder mode in this repository) and a naive float reference for
// testing.
package dct

// BlockSize is the number of samples/coefficients in one JPEG block.
const BlockSize = 64

const (
	constBits = 13
	pass1Bits = 2

	fix0_298631336 = 2446
	fix0_390180644 = 3196
	fix0_541196100 = 4433
	fix0_765366865 = 6270
	fix0_899976223 = 7373
	fix1_175875602 = 9633
	fix1_501321110 = 12299
	fix1_847759065 = 15137
	fix1_961570560 = 16069
	fix2_053119869 = 16819
	fix2_562915447 = 20995
	fix3_072711026 = 25172
)

func descale(x int32, n uint) int32 {
	return (x + (1 << (n - 1))) >> n
}

// ForwardInt computes the forward DCT of the 8x8 block in row-major order.
// Input samples must be level-shifted (centered on zero, range roughly
// [-128,127]); output coefficients are scaled by 8 (as in libjpeg's
// jfdctint), which the caller compensates in the quantization step.
func ForwardInt(block *[BlockSize]int32) {
	// Pass 1: rows.
	for i := 0; i < 8; i++ {
		b := block[i*8 : i*8+8 : i*8+8]
		tmp0 := b[0] + b[7]
		tmp7 := b[0] - b[7]
		tmp1 := b[1] + b[6]
		tmp6 := b[1] - b[6]
		tmp2 := b[2] + b[5]
		tmp5 := b[2] - b[5]
		tmp3 := b[3] + b[4]
		tmp4 := b[3] - b[4]

		tmp10 := tmp0 + tmp3
		tmp13 := tmp0 - tmp3
		tmp11 := tmp1 + tmp2
		tmp12 := tmp1 - tmp2

		b[0] = (tmp10 + tmp11) << pass1Bits
		b[4] = (tmp10 - tmp11) << pass1Bits

		z1 := (tmp12 + tmp13) * fix0_541196100
		b[2] = descale(z1+tmp13*fix0_765366865, constBits-pass1Bits)
		b[6] = descale(z1-tmp12*fix1_847759065, constBits-pass1Bits)

		z1 = tmp4 + tmp7
		z2 := tmp5 + tmp6
		z3 := tmp4 + tmp6
		z4 := tmp5 + tmp7
		z5 := (z3 + z4) * fix1_175875602

		tmp4 *= fix0_298631336
		tmp5 *= fix2_053119869
		tmp6 *= fix3_072711026
		tmp7 *= fix1_501321110
		z1 *= -fix0_899976223
		z2 *= -fix2_562915447
		z3 = z3*-fix1_961570560 + z5
		z4 = z4*-fix0_390180644 + z5

		b[7] = descale(tmp4+z1+z3, constBits-pass1Bits)
		b[5] = descale(tmp5+z2+z4, constBits-pass1Bits)
		b[3] = descale(tmp6+z2+z3, constBits-pass1Bits)
		b[1] = descale(tmp7+z1+z4, constBits-pass1Bits)
	}

	// Pass 2: columns.
	for i := 0; i < 8; i++ {
		c := block[i:]
		tmp0 := c[0] + c[56]
		tmp7 := c[0] - c[56]
		tmp1 := c[8] + c[48]
		tmp6 := c[8] - c[48]
		tmp2 := c[16] + c[40]
		tmp5 := c[16] - c[40]
		tmp3 := c[24] + c[32]
		tmp4 := c[24] - c[32]

		tmp10 := tmp0 + tmp3
		tmp13 := tmp0 - tmp3
		tmp11 := tmp1 + tmp2
		tmp12 := tmp1 - tmp2

		c[0] = descale(tmp10+tmp11, pass1Bits)
		c[32] = descale(tmp10-tmp11, pass1Bits)

		z1 := (tmp12 + tmp13) * fix0_541196100
		c[16] = descale(z1+tmp13*fix0_765366865, constBits+pass1Bits)
		c[48] = descale(z1-tmp12*fix1_847759065, constBits+pass1Bits)

		z1 = tmp4 + tmp7
		z2 := tmp5 + tmp6
		z3 := tmp4 + tmp6
		z4 := tmp5 + tmp7
		z5 := (z3 + z4) * fix1_175875602

		tmp4 *= fix0_298631336
		tmp5 *= fix2_053119869
		tmp6 *= fix3_072711026
		tmp7 *= fix1_501321110
		z1 *= -fix0_899976223
		z2 *= -fix2_562915447
		z3 = z3*-fix1_961570560 + z5
		z4 = z4*-fix0_390180644 + z5

		c[56] = descale(tmp4+z1+z3, constBits+pass1Bits)
		c[40] = descale(tmp5+z2+z4, constBits+pass1Bits)
		c[24] = descale(tmp6+z2+z3, constBits+pass1Bits)
		c[8] = descale(tmp7+z1+z4, constBits+pass1Bits)
	}
}

// InverseInt computes the inverse DCT of dequantized coefficients coef
// (row-major, natural order) and writes level-shifted, clamped samples
// into out (values 0..255 stored as int32). This is the canonical
// transform: every back-phase path (the fused scalar pipeline, its bands
// and the sparse kernels) must produce output identical to it.
func InverseInt(coef *[BlockSize]int32, out *[BlockSize]int32) {
	var ws [BlockSize]int32 // workspace after column pass
	var col [8]int32
	for c := 0; c < 8; c++ {
		for k := 0; k < 8; k++ {
			col[k] = coef[c+8*k]
		}
		InverseIntColumn(&col, ws[:], c)
	}
	var row [8]int32
	for r := 0; r < 8; r++ {
		InverseIntRow(ws[:], r, &row)
		copy(out[r*8:r*8+8], row[:])
	}
}

func clampSample(v int32) int32 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return v
}

// OpsPerBlockInt is the approximate arithmetic operation count of
// InverseInt for one block; the device cost models use it.
const OpsPerBlockInt = 16*29 + 64*2
