package color

import (
	"bytes"
	"math/rand"
	"testing"
)

// The row kernels against their oracles: ConvertRow against per-pixel
// YCbCrToRGB and the scalar convertRowGeneric, the two upsamplers against
// the scalar kernels and against the whole-row reference filters below,
// which peel the edge samples instead of clamping indexes. On amd64 the exported functions
// run the SSE2 kernels plus a scalar tail; elsewhere these tests hold the
// scalar kernels to the references.

// refUpsampleH2V1 is Algorithm 1 for a whole row, end samples peeled.
func refUpsampleH2V1(in, out []byte) {
	n := len(in)
	if n == 1 {
		out[0], out[1] = in[0], in[0]
		return
	}
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

// refUpsampleH2V2Row is one h2v2 fancy output row from its near and far
// chroma rows, through a materialised vertical blend.
func refUpsampleH2V2Row(near, far, out []byte) {
	n := len(near)
	blend := make([]int, n)
	for i := range blend {
		blend[i] = 3*int(near[i]) + int(far[i])
	}
	out[0] = byte((4*blend[0] + 8) / 16)
	if n == 1 {
		out[1] = out[0]
		return
	}
	out[1] = byte((3*blend[0] + blend[1] + 7) / 16)
	for i := 1; i < n-1; i++ {
		c := 3 * blend[i]
		out[2*i] = byte((c + blend[i-1] + 8) / 16)
		out[2*i+1] = byte((c + blend[i+1] + 7) / 16)
	}
	out[2*n-2] = byte((3*blend[n-1] + blend[n-2] + 8) / 16)
	out[2*n-1] = byte((4*blend[n-1] + 8) / 16)
}

// TestConvertRowExhaustive holds ConvertRow to YCbCrToRGB over all 2^24
// (y, cb, cr) triples. Pixel x of row (a, b) is (x, x+a, x+b), so every
// vector lane sees all three channels vary.
func TestConvertRowExhaustive(t *testing.T) {
	y, cb, cr := make([]byte, 256), make([]byte, 256), make([]byte, 256)
	dst := make([]byte, 3*256)
	for x := range y {
		y[x] = byte(x)
	}
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			for x := range y {
				cb[x], cr[x] = byte(x+a), byte(x+b)
			}
			ConvertRow(y, cb, cr, dst, 256)
			for x := range y {
				r, g, bl := YCbCrToRGB(int32(y[x]), int32(cb[x]), int32(cr[x]))
				if dst[3*x] != r || dst[3*x+1] != g || dst[3*x+2] != bl {
					t.Fatalf("YCbCr(%d,%d,%d): row gives %v, YCbCrToRGB %d,%d,%d",
						y[x], cb[x], cr[x], dst[3*x:3*x+3], r, g, bl)
				}
			}
		}
	}
}

const sentinelPad = 32

// placed is a row of n random bytes at offset off of a buffer whose
// other bytes are random sentinels; the row's capacity ends at n.
type placed struct {
	buf, row, saved []byte
	off             int
}

func place(rng *rand.Rand, n, off int) *placed {
	buf := make([]byte, sentinelPad+off+n+sentinelPad)
	rng.Read(buf)
	lo := sentinelPad + off
	return &placed{buf: buf, row: buf[lo : lo+n : lo+n], saved: bytes.Clone(buf), off: lo}
}

// checkSentinels fails unless every byte outside the row is unchanged
// and, for an input, the row too.
func (p *placed) checkSentinels(t *testing.T, what string, input bool) {
	t.Helper()
	end := p.off + len(p.row)
	if !bytes.Equal(p.buf[:p.off], p.saved[:p.off]) {
		t.Fatalf("%s: bytes before the row changed", what)
	}
	if !bytes.Equal(p.buf[end:], p.saved[end:]) {
		t.Fatalf("%s: bytes after the row changed", what)
	}
	if input && !bytes.Equal(p.row, p.saved[p.off:end]) {
		t.Fatalf("%s: input row changed", what)
	}
}

// rowSource supplies row contents: random bytes, or data cycled at a
// per-row phase when data is given (the fuzzer's rows).
type rowSource struct {
	rng  *rand.Rand
	data []byte
	k    int
}

func (s *rowSource) place(n, off int) *placed {
	p := place(s.rng, n, off)
	if len(s.data) > 0 {
		s.k++
		phase := s.k * len(s.data) / 5
		for i := range p.row {
			p.row[i] = s.data[(i+phase)%len(s.data)]
		}
		copy(p.saved, p.buf)
	}
	return p
}

// checkConvertRow runs ConvertRow on a w-pixel row with inputs at offset
// inOff (and two other alignments) and the output at outOff.
func checkConvertRow(t *testing.T, src *rowSource, w, inOff, outOff int) {
	t.Helper()
	y, cb, cr := src.place(w, inOff), src.place(w, (inOff+5)%16), src.place(w, (inOff+11)%16)
	dst := src.place(3*w, outOff)
	ConvertRow(y.row, cb.row, cr.row, dst.row, w)
	want := make([]byte, 3*w)
	convertRowGeneric(y.row, cb.row, cr.row, want, w)
	for x := 0; x < w; x++ {
		r, g, b := YCbCrToRGB(int32(y.row[x]), int32(cb.row[x]), int32(cr.row[x]))
		if want[3*x] != r || want[3*x+1] != g || want[3*x+2] != b {
			t.Fatalf("convertRowGeneric pixel %d differs from YCbCrToRGB", x)
		}
	}
	if !bytes.Equal(dst.row, want) {
		t.Fatalf("ConvertRow w=%d in+%d out+%d: differs from the scalar kernel at byte %d",
			w, inOff, outOff, firstDiff(dst.row, want))
	}
	for _, in := range []*placed{y, cb, cr} {
		in.checkSentinels(t, "ConvertRow input", true)
	}
	dst.checkSentinels(t, "ConvertRow output", false)
}

func checkH2V1(t *testing.T, src *rowSource, n, inOff, outOff int) {
	t.Helper()
	in, out := src.place(n, inOff), src.place(2*n, outOff)
	UpsampleRowH2V1Fancy(in.row, out.row)
	want, ref := make([]byte, 2*n), make([]byte, 2*n)
	upsampleH2V1Generic(in.row, want, 0, n)
	refUpsampleH2V1(in.row, ref)
	if !bytes.Equal(want, ref) {
		t.Fatalf("upsampleH2V1Generic n=%d differs from the reference at byte %d", n, firstDiff(want, ref))
	}
	if !bytes.Equal(out.row, want) {
		t.Fatalf("UpsampleRowH2V1Fancy n=%d in+%d out+%d: differs from the scalar kernel at byte %d",
			n, inOff, outOff, firstDiff(out.row, want))
	}
	in.checkSentinels(t, "UpsampleRowH2V1Fancy input", true)
	out.checkSentinels(t, "UpsampleRowH2V1Fancy output", false)
}

func checkH2V2(t *testing.T, src *rowSource, n, inOff, outOff int) {
	t.Helper()
	near, far, out := src.place(n, inOff), src.place(n, (inOff+7)%16), src.place(2*n, outOff)
	UpsampleRowH2V2Fancy(near.row, far.row, out.row)
	want, ref := make([]byte, 2*n), make([]byte, 2*n)
	upsampleH2V2Generic(near.row, far.row, want, 0, n)
	refUpsampleH2V2Row(near.row, far.row, ref)
	if !bytes.Equal(want, ref) {
		t.Fatalf("upsampleH2V2Generic n=%d differs from the reference at byte %d", n, firstDiff(want, ref))
	}
	if !bytes.Equal(out.row, want) {
		t.Fatalf("UpsampleRowH2V2Fancy n=%d in+%d out+%d: differs from the scalar kernel at byte %d",
			n, inOff, outOff, firstDiff(out.row, want))
	}
	near.checkSentinels(t, "UpsampleRowH2V2Fancy near", true)
	far.checkSentinels(t, "UpsampleRowH2V2Fancy far", true)
	out.checkSentinels(t, "UpsampleRowH2V2Fancy output", false)
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestRowKernelsWidthsOffsets runs each kernel at every width 1..64 and
// one long row, at input and output offsets 0..15, with sentinel bytes
// around every row: the output must equal the scalar kernel's and no
// byte outside the output row may change.
func TestRowKernelsWidthsOffsets(t *testing.T) {
	src := &rowSource{rng: rand.New(rand.NewSource(39))}
	widths := []int{1021}
	for w := 1; w <= 64; w++ {
		widths = append(widths, w)
	}
	for _, w := range widths {
		for inOff := 0; inOff < 16; inOff++ {
			for outOff := 0; outOff < 16; outOff++ {
				checkConvertRow(t, src, w, inOff, outOff)
				checkH2V1(t, src, w, inOff, outOff)
				checkH2V2(t, src, w, inOff, outOff)
			}
		}
	}
}

// TestUpsampleH2V2FancyMatchesRows holds the plane upsampler to the
// reference row filter over the rows ChromaRowsH2V2 picks.
func TestUpsampleH2V2FancyMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][2]int{{1, 1}, {1, 5}, {7, 1}, {19, 4}, {40, 9}} {
		w, h := dims[0], dims[1]
		in := make([]byte, w*h)
		rng.Read(in)
		out := make([]byte, 4*w*h)
		UpsampleH2V2Fancy(in, w, h, out)
		want := make([]byte, 2*w)
		for oy := 0; oy < 2*h; oy++ {
			near := oy / 2
			far := near + 1
			if oy%2 == 0 {
				far = near - 1
			}
			far = min(max(far, 0), h-1)
			refUpsampleH2V2Row(in[near*w:near*w+w], in[far*w:far*w+w], want)
			if got := out[oy*2*w : oy*2*w+2*w]; !bytes.Equal(got, want) {
				t.Fatalf("%dx%d row %d differs from the reference at byte %d", w, h, oy, firstDiff(got, want))
			}
		}
	}
}

// FuzzColorKernels runs the three row kernels on fuzzer-chosen rows,
// widths and offsets against the scalar kernels, with sentinels around
// every row.
func FuzzColorKernels(f *testing.F) {
	f.Add([]byte{0, 255, 128, 1, 254}, uint16(17), uint8(0), uint8(0))
	f.Add([]byte{16, 235, 240}, uint16(33), uint8(1), uint8(15))
	f.Add([]byte{}, uint16(1), uint8(3), uint8(5))
	f.Add([]byte("the quick brown fox"), uint16(500), uint8(9), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, width uint16, inOff, outOff uint8) {
		w := int(width)%1100 + 1
		src := &rowSource{rng: rand.New(rand.NewSource(int64(width))), data: data}
		io, oo := int(inOff)%16, int(outOff)%16
		checkConvertRow(t, src, w, io, oo)
		checkH2V1(t, src, w, io, oo)
		checkH2V2(t, src, w, io, oo)
	})
}

// BenchmarkRowKernels times each exported row kernel beside its scalar
// kernel on a 960-pixel row of random samples.
func BenchmarkRowKernels(b *testing.B) {
	const w = 960
	rng := rand.New(rand.NewSource(1))
	y, cb, cr := make([]byte, w), make([]byte, w), make([]byte, w)
	rng.Read(y)
	rng.Read(cb)
	rng.Read(cr)
	dst := make([]byte, 3*w)
	run := func(name string, px int, f func()) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(px))
			for b.Loop() {
				f()
			}
		})
	}
	run("convert", w, func() { ConvertRow(y, cb, cr, dst, w) })
	run("convert_generic", w, func() { convertRowGeneric(y, cb, cr, dst, w) })
	run("h2v1", w, func() { UpsampleRowH2V1Fancy(cb[:w/2], dst) })
	run("h2v1_generic", w, func() { upsampleH2V1Generic(cb[:w/2], dst, 0, w/2) })
	run("h2v2", w, func() { UpsampleRowH2V2Fancy(cb[:w/2], cr[:w/2], dst) })
	run("h2v2_generic", w, func() { upsampleH2V2Generic(cb[:w/2], cr[:w/2], dst, 0, w/2) })
}
