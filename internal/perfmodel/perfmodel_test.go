package perfmodel

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/platform"
)

func quickProfiles(t testing.TB, sub jfif.Subsampling) []*jpegcodec.Frame {
	t.Helper()
	items, err := imagegen.Build(imagegen.CorpusOptions{
		Widths:   []int{96, 256, 512},
		Heights:  []int{96, 256, 512},
		Details:  []float64{0.1, 0.6, 1.0},
		Sub:      sub,
		Quality:  85,
		SeedBase: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := Summarize(items)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func TestSummarizeItem(t *testing.T) {
	ps := quickProfiles(t, jfif.Sub422)
	for _, f := range ps {
		density := f.Img.EntropyDensity()
		if density <= 0 {
			t.Fatalf("density %v", density)
		}
		if len(f.BitsPerRow) != f.MCURows {
			t.Fatalf("bits rows %d != MCU rows %d", len(f.BitsPerRow), f.MCURows)
		}
		var total int64
		for _, b := range f.BitsPerRow {
			if b <= 0 {
				t.Fatal("non-positive row bits")
			}
			total += b
		}
		// The entropy segment dominates the file: decoded bits should be
		// a large fraction of the density estimate.
		estBits := density * float64(f.Img.Width*f.Img.Height) * 8
		if float64(total) < 0.5*estBits || float64(total) > 1.05*estBits {
			t.Fatalf("decoded bits %d vs file-size estimate %.0f", total, estBits)
		}
	}
}

// TestSummarizeItemCountsDecoderBits pins that profiling counts the
// product decoder's bits: SummarizeItem's BitsPerRow equals what an
// executed decode (Open + Run(1)) records on the same bytes, for each
// chroma layout, a restart interval and a progressive stream. The
// profile hands back its frame released, and profiling the same bytes
// again takes its buffers from the pools: a profile that kept its slabs
// would allocate the coefficient buffer anew on every call.
func TestSummarizeItemCountsDecoderBits(t *testing.T) {
	img := imagegen.Generate(imagegen.Scene{Seed: 38, Detail: 0.6}, 512, 384)
	defer img.Release()
	for _, c := range []struct {
		name string
		opts jpegcodec.EncodeOptions
	}{
		{"444", jpegcodec.EncodeOptions{Subsampling: jfif.Sub444}},
		{"422", jpegcodec.EncodeOptions{Subsampling: jfif.Sub422}},
		{"420", jpegcodec.EncodeOptions{Subsampling: jfif.Sub420}},
		{"420 restart", jpegcodec.EncodeOptions{Subsampling: jfif.Sub420, RestartInterval: 5}},
		{"420 progressive", jpegcodec.EncodeOptions{Subsampling: jfif.Sub420, Progressive: true}},
	} {
		c.opts.Quality = 85
		data, err := jpegcodec.Encode(img, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		it := imagegen.Item{Name: c.name, Data: data}
		p, err := SummarizeItem(it)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}

		d, err := jpegcodec.Open(data, jpegcodec.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		f := d.Frame()
		coeffBytes := 0
		for _, s := range f.Coeff {
			coeffBytes += 4 * len(s)
		}
		out, err := d.Run(1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		out.Release()
		if !slices.Equal(p.BitsPerRow, f.BitsPerRow) {
			t.Errorf("%s: profiled bits per row %v, decoded %v", c.name, p.BitsPerRow, f.BitsPerRow)
		}

		for ci := range p.Planes {
			if p.Coeff[ci] != nil || p.Samples[ci] != nil || p.NZ[ci] != nil {
				t.Errorf("%s: component %d keeps its buffers after profiling", c.name, ci)
			}
		}
		const repeats = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < repeats; i++ {
			if _, err := SummarizeItem(it); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		runtime.ReadMemStats(&after)
		if perCall := (after.TotalAlloc - before.TotalAlloc) / repeats; perCall >= uint64(coeffBytes/4) {
			t.Errorf("%s: a repeat profile allocates %d B, the coefficient buffer is %d B: slabs stay checked out", c.name, perCall, coeffBytes)
		}
	}
}

func TestFitPredictsHeldOutImages(t *testing.T) {
	spec := platform.GTX560()
	train := quickProfiles(t, jfif.Sub422)
	m, err := Fit(spec, train)
	if err != nil {
		t.Fatal(err)
	}
	sm := m.ForSub(jfif.Sub422)
	if sm == nil {
		t.Fatal("no 4:2:2 sub-model")
	}
	// Held-out sizes (not on the training grid).
	held, err := imagegen.Build(imagegen.CorpusOptions{
		Widths:   []int{384},
		Heights:  []int{320},
		Details:  []float64{0.4, 0.8},
		Sub:      jfif.Sub422,
		Quality:  85,
		SeedBase: 9999,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range held {
		p, err := SummarizeItem(it)
		if err != nil {
			t.Fatal(err)
		}
		me := MeasureParallel(spec, p)
		w, h := float64(p.Img.Width), float64(p.Img.Height)
		predCPU := sm.PCPU.Eval(w, h)
		predGPU := sm.PGPU.Eval(w, h)
		predHuff := sm.THuff(w, h, p.Img.EntropyDensity())
		if relErr(predCPU, me.PCPU) > 0.10 {
			t.Errorf("%s: PCPU predicted %.0f measured %.0f", it.Name, predCPU, me.PCPU)
		}
		if relErr(predGPU, me.PGPU) > 0.10 {
			t.Errorf("%s: PGPU predicted %.0f measured %.0f", it.Name, predGPU, me.PGPU)
		}
		if relErr(predHuff, me.THuff) > 0.25 {
			t.Errorf("%s: THuff predicted %.0f measured %.0f", it.Name, predHuff, me.THuff)
		}
	}
}

func relErr(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	spec := platform.GT430()
	train := quickProfiles(t, jfif.Sub444)
	m, err := Fit(spec, train)
	if err != nil {
		t.Fatal(err)
	}
	m.ChunkRows = 17
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Platform != m.Platform || m2.ChunkRows != 17 {
		t.Fatalf("round trip lost metadata: %+v", m2)
	}
	sm, sm2 := m.ForSub(jfif.Sub444), m2.ForSub(jfif.Sub444)
	if sm2 == nil {
		t.Fatal("sub-model lost")
	}
	w, h := 333.0, 257.0
	if relErr(sm2.PCPU.Eval(w, h), sm.PCPU.Eval(w, h)) > 1e-12 {
		t.Fatal("PCPU changed across save/load")
	}
	if relErr(sm2.HuffPerPixel.Eval(0.2), sm.HuffPerPixel.Eval(0.2)) > 1e-12 {
		t.Fatal("Huffman fit changed across save/load")
	}
}

func TestSelectChunkRowsPrefersModerateChunks(t *testing.T) {
	spec := platform.GTX560()
	items, err := imagegen.SizeSweep(jfif.Sub422, 0.6, [][2]int{{1024, 1024}, {1536, 1024}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := Summarize(items)
	if err != nil {
		t.Fatal(err)
	}
	rows := SelectChunkRows(spec, ps, nil)
	if rows < 2 || rows > 128 {
		t.Fatalf("selected chunk size %d outside sane range", rows)
	}
	// One-row chunks must not win: launch overhead dominates.
	one := simulatePipelined(spec, ps[0], 1)
	best := simulatePipelined(spec, ps[0], rows)
	if one < best {
		t.Fatalf("1-row chunks (%.0f) beat selected %d rows (%.0f)", one, rows, best)
	}
}

func TestHuffmanFitIsMonotoneInDensity(t *testing.T) {
	spec := platform.GTX680()
	train := quickProfiles(t, jfif.Sub444)
	m, err := Fit(spec, train)
	if err != nil {
		t.Fatal(err)
	}
	sm := m.ForSub(jfif.Sub444)
	// Monotonicity is only guaranteed within the fitted density range
	// (polynomials extrapolate poorly — the Section 5.1 caveat).
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, f := range train {
		lo = math.Min(lo, f.Img.EntropyDensity())
		hi = math.Max(hi, f.Img.EntropyDensity())
	}
	// The scatter in the density estimate (file headers inflate d for
	// small images, exactly as in the paper's Figure 7) permits local
	// wiggles; require positivity across the range and a clearly
	// increasing overall trend.
	for i := 0; i <= 20; i++ {
		d := lo + (hi-lo)*float64(i)/20
		if v := sm.HuffPerPixel.Eval(d); v <= 0 {
			t.Fatalf("Huffman rate non-positive at density %.3f: %v", d, v)
		}
	}
	vLo, vHi := sm.HuffPerPixel.Eval(lo), sm.HuffPerPixel.Eval(hi)
	if vHi < 1.5*vLo {
		t.Fatalf("Huffman rate trend too flat: %.3f at d=%.3f vs %.3f at d=%.3f", vLo, lo, vHi, hi)
	}
}

// TestSharedProfileFit pins that one set of profiles serves every
// machine: fitting all of Fitted from one shared profile slice, in
// either order, gives each machine the Save bytes of fitting it alone
// from a fresh Summarize. A Fit or SelectChunkRows that wrote to a
// profile would change the machines fitted after it.
func TestSharedProfileFit(t *testing.T) {
	sizes := [][2]int{{64, 64}, {256, 128}, {128, 256}, {320, 240}, {512, 512}}
	var items []imagegen.Item
	for _, sub := range []jfif.Subsampling{jfif.Sub422, jfif.Sub444, jfif.Sub420} {
		its, err := imagegen.SizeSweep(sub, 0.5, sizes, 40)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, its...)
	}
	summarize := func() []*jpegcodec.Frame {
		ps, err := Summarize(items)
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}
	fit := func(specs []*platform.Spec, ps []*jpegcodec.Frame) map[string][]byte {
		ms, err := fitAll(specs, ps)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, m := range ms {
			out[m.Platform] = saved(t, m)
		}
		return out
	}

	specs := Fitted()
	shared := summarize()
	forward := fit(specs, shared)
	slices.Reverse(specs)
	backward := fit(specs, shared)
	for _, spec := range specs {
		alone := fit([]*platform.Spec{spec}, summarize())[spec.Name]
		if !bytes.Equal(forward[spec.Name], alone) || !bytes.Equal(backward[spec.Name], alone) {
			t.Errorf("%s: the fit from shared profiles differs from its fit alone", spec.Name)
		}
	}
}

// saved returns the bytes Save writes for m.
func saved(t *testing.T, m *Model) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
