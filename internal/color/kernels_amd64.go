package color

// Wrappers for the SSE2 kernels of kernels_amd64.s. SSE2 is the amd64
// baseline, so they run on every amd64 CPU. Each wrapper hands its
// kernel the whole 16-sample chunks whose loads stay inside the input
// rows and whose stores stay inside the output row, and returns how
// many samples they cover; the exported functions finish the row with
// the scalar kernels.

//go:noescape
func convertRowSSE2(dst, y, cb, cr *byte, chunks int)

//go:noescape
func upsampleH2V1SSE2(out, in *byte, chunks int)

//go:noescape
func upsampleH2V2SSE2(out, near, far *byte, chunks int)

// convertRowVec converts the first pixels of rows of exactly w pixels
// (dst exactly 3w bytes) and returns how many. A chunk stores two
// scratch bytes past its 48, so the chunks stop at least one pixel
// short of w.
func convertRowVec(yr, cbr, crr, dst []byte, w int) int {
	chunks := (w - 1) / 16
	if chunks <= 0 {
		return 0
	}
	convertRowSSE2(&dst[0], &yr[0], &cbr[0], &crr[0], chunks)
	return 16 * chunks
}

// upsampleH2V1Vec fills out for samples [1, 1+k) of in and returns k.
// A chunk reads the samples on either side of it, so the chunks start
// at sample 1 and end at least one sample short of len(in).
func upsampleH2V1Vec(in, out []byte) int {
	chunks := (len(in) - 2) / 16
	if chunks <= 0 {
		return 0
	}
	upsampleH2V1SSE2(&out[2], &in[1], chunks)
	return 16 * chunks
}

// upsampleH2V2Vec is upsampleH2V1Vec for the h2v2 row kernel; far and
// out are already cut to len(near) and 2·len(near).
func upsampleH2V2Vec(near, far, out []byte) int {
	chunks := (len(near) - 2) / 16
	if chunks <= 0 {
		return 0
	}
	upsampleH2V2SSE2(&out[2], &near[1], &far[1], chunks)
	return 16 * chunks
}
