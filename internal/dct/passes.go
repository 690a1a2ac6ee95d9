package dct

// The inverse transform exposed as separate column and row passes, the
// split the paper's GPU IDCT kernel (Section 4.1) uses: one work-item per
// column for the column pass, the intermediate shared through local
// memory, then the row pass per row. The CPU paths (InverseInt and the
// sparse kernels) compose the same passes, so every decoder mode runs
// the *same arithmetic*.

// InverseIntColumn performs the column pass for one column c (0..7).
// col holds the 8 dequantized coefficients of that column, top to bottom;
// the intermediate result is written to ws[c+8k] (the shared workspace,
// local memory in the paper's kernel).
func InverseIntColumn(col *[8]int32, ws []int32, c int) {
	// All-AC-zero shortcut, identical to libjpeg's.
	if col[1] == 0 && col[2] == 0 && col[3] == 0 && col[4] == 0 &&
		col[5] == 0 && col[6] == 0 && col[7] == 0 {
		dc := col[0] << pass1Bits
		for k := 0; k < 8; k++ {
			ws[c+8*k] = dc
		}
		return
	}

	z2 := col[2]
	z3 := col[6]
	z1 := (z2 + z3) * fix0_541196100
	tmp2 := z1 - z3*fix1_847759065
	tmp3 := z1 + z2*fix0_765366865

	z2 = col[0]
	z3 = col[4]
	tmp0 := (z2 + z3) << constBits
	tmp1 := (z2 - z3) << constBits

	tmp10 := tmp0 + tmp3
	tmp13 := tmp0 - tmp3
	tmp11 := tmp1 + tmp2
	tmp12 := tmp1 - tmp2

	t0 := col[7]
	t1 := col[5]
	t2 := col[3]
	t3 := col[1]
	z1 = t0 + t3
	z2 = t1 + t2
	z3 = t0 + t2
	z4 := t1 + t3
	z5 := (z3 + z4) * fix1_175875602

	t0 *= fix0_298631336
	t1 *= fix2_053119869
	t2 *= fix3_072711026
	t3 *= fix1_501321110
	z1 *= -fix0_899976223
	z2 *= -fix2_562915447
	z3 = z3*-fix1_961570560 + z5
	z4 = z4*-fix0_390180644 + z5

	t0 += z1 + z3
	t1 += z2 + z4
	t2 += z2 + z3
	t3 += z1 + z4

	ws[c] = descale(tmp10+t3, constBits-pass1Bits)
	ws[c+56] = descale(tmp10-t3, constBits-pass1Bits)
	ws[c+8] = descale(tmp11+t2, constBits-pass1Bits)
	ws[c+48] = descale(tmp11-t2, constBits-pass1Bits)
	ws[c+16] = descale(tmp12+t1, constBits-pass1Bits)
	ws[c+40] = descale(tmp12-t1, constBits-pass1Bits)
	ws[c+24] = descale(tmp13+t0, constBits-pass1Bits)
	ws[c+32] = descale(tmp13-t0, constBits-pass1Bits)
}

// InverseIntRow performs the row pass for row r (0..7) of the workspace,
// writing 8 level-shifted, clamped samples (0..255) into out.
func InverseIntRow(ws []int32, r int, out *[8]int32) {
	w := ws[r*8 : r*8+8 : r*8+8]

	z2 := w[2]
	z3 := w[6]
	z1 := (z2 + z3) * fix0_541196100
	tmp2 := z1 - z3*fix1_847759065
	tmp3 := z1 + z2*fix0_765366865

	tmp0 := (w[0] + w[4]) << constBits
	tmp1 := (w[0] - w[4]) << constBits

	tmp10 := tmp0 + tmp3
	tmp13 := tmp0 - tmp3
	tmp11 := tmp1 + tmp2
	tmp12 := tmp1 - tmp2

	t0 := w[7]
	t1 := w[5]
	t2 := w[3]
	t3 := w[1]
	z1 = t0 + t3
	z2 = t1 + t2
	z3 = t0 + t2
	z4 := t1 + t3
	z5 := (z3 + z4) * fix1_175875602

	t0 *= fix0_298631336
	t1 *= fix2_053119869
	t2 *= fix3_072711026
	t3 *= fix1_501321110
	z1 *= -fix0_899976223
	z2 *= -fix2_562915447
	z3 = z3*-fix1_961570560 + z5
	z4 = z4*-fix0_390180644 + z5

	t0 += z1 + z3
	t1 += z2 + z4
	t2 += z2 + z3
	t3 += z1 + z4

	const finalBits = constBits + pass1Bits + 3
	out[0] = clampSample(descale(tmp10+t3, finalBits) + 128)
	out[7] = clampSample(descale(tmp10-t3, finalBits) + 128)
	out[1] = clampSample(descale(tmp11+t2, finalBits) + 128)
	out[6] = clampSample(descale(tmp11-t2, finalBits) + 128)
	out[2] = clampSample(descale(tmp12+t1, finalBits) + 128)
	out[5] = clampSample(descale(tmp12-t1, finalBits) + 128)
	out[3] = clampSample(descale(tmp13+t0, finalBits) + 128)
	out[4] = clampSample(descale(tmp13-t0, finalBits) + 128)
}
