package batch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"hetjpeg/internal/core"
	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/perfmodel"
	"hetjpeg/internal/platform"
)

// mixedCorpus builds a small batch spanning sizes and all subsamplings,
// with one image clearly larger than the rest (the straggler the band
// scheduler exists for).
func mixedCorpus(t testing.TB) [][]byte {
	t.Helper()
	type shape struct {
		w, h   int
		sub    jfif.Subsampling
		detail float64
	}
	shapes := []shape{
		{320, 240, jfif.Sub420, 0.3},
		{512, 384, jfif.Sub422, 0.6},
		{256, 256, jfif.Sub444, 0.8},
		{960, 720, jfif.Sub420, 0.5}, // straggler
		{400, 304, jfif.Sub422, 0.2},
		{320, 240, jfif.Sub444, 0.9},
	}
	var out [][]byte
	for i, s := range shapes {
		items, err := imagegen.SizeSweep(s.sub, s.detail, [][2]int{{s.w, s.h}}, int64(5100+i))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, items[0].Data)
	}
	return out
}

// The band scheduler must be indistinguishable from a plain sequential
// loop of core.Decode in everything but wall-clock: byte-identical
// pixels, identical virtual times and scheduling statistics — across
// every mode, several worker counts and mixed image sizes.
func TestSchedulerIdentityAcrossModesAndWorkers(t *testing.T) {
	spec := platform.GTX560()
	model, err := perfmodel.Default(spec)
	if err != nil {
		t.Fatal(err)
	}
	datas := mixedCorpus(t)
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	modes := append([]core.Mode{core.ModeAuto}, core.AllModes()...)
	for _, mode := range modes {
		ref := &Result{Images: make([]ImageResult, len(datas))}
		for i, data := range datas {
			res, err := core.Decode(data, core.Options{Mode: mode, Spec: spec, Model: model})
			if err != nil {
				t.Fatalf("%v: reference decode of image %d: %v", mode, i, err)
			}
			ref.Images[i] = ImageResult{Index: i, Res: res}
			ref.SerialNs += res.TotalNs
		}
		ref.PipelinedNs = MergeTimelines(ref.Images).Makespan()
		for _, w := range workerCounts {
			t.Run(fmt.Sprintf("%v/workers%d", mode, w), func(t *testing.T) {
				got, err := Decode(datas, Options{
					Spec: spec, Model: model, Mode: mode, Workers: w,
				})
				if err != nil {
					t.Fatal(err)
				}
				if got.Failed != 0 {
					t.Fatalf("band scheduler failed %d images", got.Failed)
				}
				if got.SerialNs != ref.SerialNs || got.PipelinedNs != ref.PipelinedNs {
					t.Errorf("virtual times differ: bands (%.1f, %.1f) vs core.Decode loop (%.1f, %.1f)",
						got.SerialNs, got.PipelinedNs, ref.SerialNs, ref.PipelinedNs)
				}
				for i := range datas {
					g, r := got.Images[i], ref.Images[i]
					if g.Res.Stats != r.Res.Stats {
						t.Errorf("image %d stats differ: %+v vs %+v", i, g.Res.Stats, r.Res.Stats)
					}
					if !bytes.Equal(g.Res.Image.Pix, r.Res.Image.Pix) {
						t.Errorf("image %d pixels differ from core.Decode", i)
					}
				}
			})
		}
	}
}

// Mid-flight cancellation plus a corrupt image, on the band scheduler
// with more workers than cores: the stress test CI runs under -race.
// Every slot must resolve (result or error), the corrupt image must not
// poison its neighbors, and cancellation must propagate to images whose
// bands are already queued.
func TestBandSchedulerStressCancellation(t *testing.T) {
	spec := platform.GTX560()
	datas := mixedCorpus(t)
	datas = append(datas, mixedCorpus(t)...)
	corrupt := 3
	datas[corrupt] = []byte{0xFF, 0xD8, 0x00, 0x01} // SOI then garbage

	ctx, cancel := context.WithCancel(context.Background())
	ex, err := NewExecutor(Options{Spec: spec, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var submitted atomic.Int64
	go func() {
		defer ex.Close()
		for i, d := range datas {
			if err := ex.Submit(ctx, i, d); err != nil {
				return
			}
			submitted.Add(1)
		}
	}()

	resolved := make(map[int]bool)
	n := 0
	for ir := range ex.Results() {
		if resolved[ir.Index] {
			t.Fatalf("image %d delivered twice", ir.Index)
		}
		resolved[ir.Index] = true
		n++
		if n == 2 {
			cancel() // mid-flight: bands of later images are in the deques
		}
		switch {
		case ir.Index == corrupt:
			if ir.Err == nil {
				t.Error("corrupt image decoded successfully")
			}
		case ir.Err != nil:
			if !errors.Is(ir.Err, context.Canceled) {
				t.Errorf("image %d: unexpected error %v", ir.Index, ir.Err)
			}
		default:
			if ir.Res == nil || len(ir.Res.Image.Pix) == 0 {
				t.Errorf("image %d: empty result", ir.Index)
			}
			ir.Res.Release()
		}
	}
	if int64(n) != submitted.Load() {
		t.Fatalf("resolved %d of %d submitted images", n, submitted.Load())
	}
	cancel()
}

// The executor must also survive a full batch of failures (every image
// corrupt) without stalling the pipeline accounting.
func TestBandSchedulerAllCorrupt(t *testing.T) {
	spec := platform.GT430()
	datas := [][]byte{{0x00}, {0xFF, 0xD8}, nil, {0x42, 0x42, 0x42}}
	res, err := Decode(datas, Options{Spec: spec, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != len(datas) {
		t.Fatalf("Failed = %d, want %d", res.Failed, len(datas))
	}
}

// Zero-value Options must be self-describing: ModeAuto resolves to PPS
// with a model and pipelined GPU without one — the executor's decode
// matches core.Decode in the resolved mode exactly.
func TestModeAutoResolution(t *testing.T) {
	spec := platform.GTX560()
	model, err := perfmodel.Default(spec)
	if err != nil {
		t.Fatal(err)
	}
	data := corpus(t, 1)[0]
	for _, tc := range []struct {
		name string
		opts Options
		want core.Mode
	}{
		{"auto without model", Options{Spec: spec}, core.ModePipelinedGPU},
		{"auto with model", Options{Spec: spec, Model: model}, core.ModePPS},
		{"explicit mode", Options{Spec: spec, Model: model, Mode: core.ModeSequential}, core.ModeSequential},
	} {
		got, err := Decode([][]byte{data}, tc.opts)
		if err != nil || got.Failed != 0 {
			t.Fatalf("%s: %v (%d failed)", tc.name, err, got.Failed)
		}
		ref, err := core.Decode(data, core.Options{Spec: spec, Model: tc.opts.Model, Mode: tc.want})
		if err != nil {
			t.Fatal(err)
		}
		if g := got.Images[0].Res; g.TotalNs != ref.TotalNs || g.Stats != ref.Stats {
			t.Errorf("%s: executor decode (%.1f ns, %+v) is not %v (%.1f ns, %+v)",
				tc.name, g.TotalNs, g.Stats, tc.want, ref.TotalNs, ref.Stats)
		}
	}
}

// Calibrator invariants: band sizing honors the one-band-per-worker
// shredding bound and the in-flight target stays within its clamps as
// observations move.
func TestCalibratorBounds(t *testing.T) {
	items, err := imagegen.SizeSweep(jfif.Sub420, 0.5, [][2]int{{640, 480}}, 9)
	if err != nil {
		t.Fatal(err)
	}
	d, err := jpegcodec.Open(items[0].Data, jpegcodec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Release()
	f := d.Frame()

	var c calibrator
	// Cold: some sane size in [1, MCURows].
	if br := c.bandRows(f, 4); br < 1 || br > f.MCURows {
		t.Fatalf("cold bandRows = %d", br)
	}
	// A very slow back phase wants tiny bands.
	c.backPerMCU.At(scaleSlot(f.Scale)).Observe(1e6)
	if br := c.bandRows(f, 4); br != 1 {
		t.Errorf("slow back phase bandRows = %d, want 1", br)
	}
	// A very fast back phase wants coarse bands, but a lone image must
	// still split across all workers.
	c = calibrator{}
	c.backPerMCU.At(scaleSlot(f.Scale)).Observe(1)
	workers := 4
	lim := (f.MCURows + workers - 1) / workers
	if br := c.bandRows(f, workers); br != lim {
		t.Errorf("fast back phase bandRows = %d, want worker cap %d", br, lim)
	}
	for _, entNs := range []float64{1, 1e3, 1e6} {
		c.entPerMCU.At(entBaseline).Observe(entNs)
		got := c.inflightTarget(8)
		if got < minInflight || got > 8+minInflight {
			t.Errorf("inflightTarget(ent=%g) = %d out of bounds", entNs, got)
		}
	}
}

// A burst of progressive and DC-only entropy observations leaves the
// baseline entropy rate where the baseline image put it, and QueueStats
// reports the largest class, the in-flight sizing basis.
func TestCalibratorEntropyClassIsolation(t *testing.T) {
	base, prog := handoffFixture(t, false), handoffFixture(t, true)
	ex, err := NewExecutor(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	decode := func(data []byte, scale jpegcodec.Scale) {
		t.Helper()
		ir, err := ex.Decode(context.Background(), data, scale)
		if err == nil {
			err = ir.Err
		}
		if err != nil {
			t.Fatal(err)
		}
		ir.Res.Release()
	}
	entropy := func() (v [3]float64) {
		ex.mu.Lock()
		defer ex.mu.Unlock()
		for i := range v {
			v[i] = ex.cal.entPerMCU.At(i).Value()
		}
		return v
	}

	decode(base, jpegcodec.Scale1)
	baseline := entropy()[entBaseline]
	if baseline <= 0 {
		t.Fatalf("baseline entropy rate %v after a baseline decode", baseline)
	}
	for i := 0; i < 4; i++ {
		decode(prog, jpegcodec.Scale1)
		decode(base, jpegcodec.Scale8) // baseline at 1/8: the DC-only class
	}
	got := entropy()
	if got[entBaseline] != baseline {
		t.Errorf("baseline entropy rate moved from %v to %v under other classes' traffic", baseline, got[entBaseline])
	}
	if got[entProgressive] <= 0 || got[entDCOnly] <= 0 {
		t.Errorf("progressive and DC-only rates not observed: %v", got)
	}
	want := max(got[0], got[1], got[2])
	if s := ex.QueueStats().EntropyNsPerMCU; s != want {
		t.Errorf("QueueStats().EntropyNsPerMCU = %v, want the largest class %v (%v)", s, want, got)
	}
}
