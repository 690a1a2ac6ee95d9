// Benchmarks of the decoder's design choices and wall-clock paths: the
// ablations the paper calls out (merged kernels, chunk and work-group
// size, pipelining crossover), the extensions (the Embedded machine,
// batch pipelining, restart-parallel entropy), real decodes and batch
// throughput. Each reports its headline quantity as a custom metric.
// The paper's tables and figures are rendered by `repro figures` and
// their shapes pinned by internal/harness's tests.
package hetjpeg_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"hetjpeg"
	"hetjpeg/internal/core"
	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/perfmodel"
	"hetjpeg/internal/platform"
)

// models returns the committed fit of every Table 1 machine, keyed by
// name.
func models(b testing.TB) map[string]*perfmodel.Model {
	ms := map[string]*perfmodel.Model{}
	for _, spec := range platform.All() {
		m, err := perfmodel.Default(spec)
		if err != nil {
			b.Fatal(err)
		}
		ms[spec.Name] = m
	}
	return ms
}

// ---------------------------------------------------------------------
// Real (wall-clock) decodes: every mode computes its pixels with the
// one scalar back phase and adds only the building of its virtual
// schedule, so these measure host throughput and that schedule's cost.

func benchRealDecode(b *testing.B, mode core.Mode) {
	ms := models(b)
	items, err := imagegen.SizeSweep(jfif.Sub422, 0.6, [][2]int{{1024, 1024}}, 5)
	if err != nil {
		b.Fatal(err)
	}
	data := items[0].Data
	spec := platform.GTX560()
	b.SetBytes(1024 * 1024 * 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hetjpeg.Decode(data, hetjpeg.Options{Mode: mode, Spec: spec, Model: ms[spec.Name]}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRealDecode_Sequential(b *testing.B)   { benchRealDecode(b, core.ModeSequential) }
func BenchmarkRealDecode_SIMD(b *testing.B)         { benchRealDecode(b, core.ModeSIMD) }
func BenchmarkRealDecode_GPU(b *testing.B)          { benchRealDecode(b, core.ModeGPU) }
func BenchmarkRealDecode_PipelinedGPU(b *testing.B) { benchRealDecode(b, core.ModePipelinedGPU) }
func BenchmarkRealDecode_SPS(b *testing.B)          { benchRealDecode(b, core.ModeSPS) }
func BenchmarkRealDecode_PPS(b *testing.B)          { benchRealDecode(b, core.ModePPS) }

// ---------------------------------------------------------------------
// Ablations: design choices the paper calls out.

// Merged vs split kernels (Section 4.4).
func BenchmarkAblation_MergedVsSplitKernels(b *testing.B) {
	items, err := imagegen.SizeSweep(jfif.Sub422, 0.6, [][2]int{{1600, 1200}}, 5)
	if err != nil {
		b.Fatal(err)
	}
	data := items[0].Data
	spec := platform.GTX560()
	var merged, split float64
	for i := 0; i < b.N; i++ {
		rm, err := hetjpeg.Decode(data, hetjpeg.Options{Mode: core.ModeGPU, Spec: spec, VirtualOnly: true})
		if err != nil {
			b.Fatal(err)
		}
		rs, err := hetjpeg.Decode(data, hetjpeg.Options{Mode: core.ModeGPU, Spec: spec, VirtualOnly: true, SplitKernels: true})
		if err != nil {
			b.Fatal(err)
		}
		merged, split = rm.TotalNs, rs.TotalNs
	}
	b.ReportMetric(split/merged, "split/merged")
}

// Chunk-size sensitivity (Section 4.5).
func BenchmarkAblation_ChunkSize(b *testing.B) {
	items, err := imagegen.SizeSweep(jfif.Sub422, 0.6, [][2]int{{2048, 2048}}, 5)
	if err != nil {
		b.Fatal(err)
	}
	data := items[0].Data
	spec := platform.GTX560()
	results := map[int]float64{}
	for i := 0; i < b.N; i++ {
		for _, c := range []int{2, 8, 24, 64, 256} {
			r, err := hetjpeg.Decode(data, hetjpeg.Options{
				Mode: core.ModePipelinedGPU, Spec: spec, ChunkRows: c, VirtualOnly: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			results[c] = r.TotalNs
		}
	}
	for c, ns := range results {
		b.ReportMetric(ns/1e6, fmt.Sprintf("ms-chunk%d", c))
	}
}

// Optimized Huffman tables vs Annex K defaults (encoder substrate).
func BenchmarkAblation_OptimizedHuffman(b *testing.B) {
	img := imagegen.Generate(imagegen.Scene{Seed: 3, Detail: 0.7}, 1024, 768)
	var stdLen, optLen int
	for i := 0; i < b.N; i++ {
		std, err := hetjpeg.Encode(img, hetjpeg.EncodeOptions{Quality: 85, Subsampling: jfif.Sub422})
		if err != nil {
			b.Fatal(err)
		}
		opt, err := hetjpeg.Encode(img, hetjpeg.EncodeOptions{Quality: 85, Subsampling: jfif.Sub422, OptimizeHuffman: true})
		if err != nil {
			b.Fatal(err)
		}
		stdLen, optLen = len(std), len(opt)
	}
	b.ReportMetric(float64(optLen)/float64(stdLen), "opt/std-bytes")
}

// Work-group size sensitivity (Section 5.1 sweeps 4..32 MCUs).
func BenchmarkAblation_WorkGroupSize(b *testing.B) {
	items, err := imagegen.SizeSweep(jfif.Sub422, 0.6, [][2]int{{1600, 1200}}, 5)
	if err != nil {
		b.Fatal(err)
	}
	data := items[0].Data
	results := map[int]float64{}
	for i := 0; i < b.N; i++ {
		for _, gb := range []int{4, 8, 16, 32, 64} {
			spec := *platform.GTX560()
			spec.WorkGroupBlocks = gb
			r, err := hetjpeg.Decode(data, hetjpeg.Options{Mode: core.ModeGPU, Spec: &spec, VirtualOnly: true})
			if err != nil {
				b.Fatal(err)
			}
			results[gb] = r.TotalNs
		}
	}
	for gb, ns := range results {
		b.ReportMetric(ns/1e6, fmt.Sprintf("ms-wg%d", gb))
	}
}

// Pipelined execution vs single launch across image sizes: where does
// pipelining stop helping (small images, Section 6.2)?
func BenchmarkAblation_PipelineCrossover(b *testing.B) {
	spec := platform.GTX560()
	sizes := [][2]int{{128, 128}, {512, 512}, {2048, 2048}}
	results := map[int]float64{}
	for i := 0; i < b.N; i++ {
		for _, wh := range sizes {
			items, err := imagegen.SizeSweep(jfif.Sub422, 0.6, [][2]int{wh}, 5)
			if err != nil {
				b.Fatal(err)
			}
			gpu, err := hetjpeg.Decode(items[0].Data, hetjpeg.Options{Mode: core.ModeGPU, Spec: spec, VirtualOnly: true})
			if err != nil {
				b.Fatal(err)
			}
			pipe, err := hetjpeg.Decode(items[0].Data, hetjpeg.Options{Mode: core.ModePipelinedGPU, Spec: spec, VirtualOnly: true})
			if err != nil {
				b.Fatal(err)
			}
			results[wh[0]] = gpu.TotalNs / pipe.TotalNs
		}
	}
	for size, gain := range results {
		b.ReportMetric(gain, fmt.Sprintf("pipeGain-%dpx", size))
	}
}

// What-if: the embedded (integrated GPU, zero-copy) machine from the
// paper's conclusion. The weak GPU loses on raw kernels, but cheap
// transfers keep heterogeneous decoding ahead of SIMD. PPS runs on the
// machine's committed fit, which `repro fit` writes beside the Table 1
// machines'.
func BenchmarkExtension_EmbeddedPlatform(b *testing.B) {
	spec := platform.Embedded()
	model, err := perfmodel.Default(spec)
	if err != nil {
		b.Fatal(err)
	}
	items, err := imagegen.SizeSweep(jfif.Sub422, 0.5, [][2]int{{1024, 768}}, 5)
	if err != nil {
		b.Fatal(err)
	}
	data := items[0].Data
	var gpu, pps float64
	for i := 0; i < b.N; i++ {
		simd, err := hetjpeg.Decode(data, hetjpeg.Options{Mode: core.ModeSIMD, Spec: spec, VirtualOnly: true})
		if err != nil {
			b.Fatal(err)
		}
		g, err := hetjpeg.Decode(data, hetjpeg.Options{Mode: core.ModeGPU, Spec: spec, VirtualOnly: true})
		if err != nil {
			b.Fatal(err)
		}
		p, err := hetjpeg.Decode(data, hetjpeg.Options{Mode: core.ModePPS, Spec: spec, Model: model, VirtualOnly: true})
		if err != nil {
			b.Fatal(err)
		}
		gpu, pps = simd.TotalNs/g.TotalNs, simd.TotalNs/p.TotalNs
	}
	b.ReportMetric(gpu, "gpuVsSimd")
	b.ReportMetric(pps, "ppsVsSimd")
}

// Extension: cross-image batch pipelining (internal/batch).
func BenchmarkExtension_BatchPipelining(b *testing.B) {
	ms := models(b)
	spec := platform.GTX560()
	var stream [][]byte
	for i := 0; i < 8; i++ {
		items, err := imagegen.SizeSweep(jfif.Sub422, 0.4, [][2]int{{800, 600}}, int64(700+i))
		if err != nil {
			b.Fatal(err)
		}
		stream = append(stream, items[0].Data)
	}
	var gain float64
	for i := 0; i < b.N; i++ {
		res, err := hetjpeg.DecodeBatch(stream, hetjpeg.BatchOptions{Spec: spec, Model: ms[spec.Name]})
		if err != nil {
			b.Fatal(err)
		}
		gain = res.Gain()
	}
	b.ReportMetric(gain, "batchGain")
}

// Wall-clock batch throughput: the concurrent executor vs a serial
// one-worker loop over the same stream. Pixels are bit-identical and
// the virtual makespan is identical across worker counts (asserted by
// TestBatchDeterministicAcrossWorkers); what changes is host
// throughput, which should scale near-linearly until the core count.
func benchBatchWallClock(b *testing.B, workers int) {
	var stream [][]byte
	for i := 0; i < 16; i++ {
		items, err := imagegen.SizeSweep(jfif.Sub422, 0.5, [][2]int{{800, 600}}, int64(4200+i))
		if err != nil {
			b.Fatal(err)
		}
		stream = append(stream, items[0].Data)
	}
	spec := platform.GTX560()
	opts := hetjpeg.BatchOptions{Spec: spec, Mode: core.ModePipelinedGPU, Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := hetjpeg.DecodeBatch(stream, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Failed != 0 {
			b.Fatalf("%d images failed", res.Failed)
		}
		for _, ir := range res.Images {
			ir.Res.Release()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(stream)*b.N)/b.Elapsed().Seconds(), "imgs/s")
}

func BenchmarkBatchWallClock_Workers1(b *testing.B) { benchBatchWallClock(b, 1) }
func BenchmarkBatchWallClock_WorkersN(b *testing.B) { benchBatchWallClock(b, runtime.GOMAXPROCS(0)) }

// Mixed-size wall-clock batch: the workload the band scheduler exists
// for. The corpus spans 0.3–4.9 MP across all three subsamplings with
// one 5 MP straggler; a whole-image pool would pin one worker on that
// straggler while the rest drain. The band scheduler overlaps entropy
// streams and shreds every image's back phase into work-stolen MCU
// bands, with pixels byte-identical to a core.Decode loop
// (TestSchedulerIdentity...). The tracked wall-clock throughput of the
// band scheduler is the benchmark's batch_gallery workload
// (benchmark/README.md).
var (
	mixedBatchOnce sync.Once
	mixedBatchData [][]byte
	mixedBatchPix  float64 // total decoded megapixels per batch
	mixedBatchErr  error
)

func mixedBatchCorpus(b *testing.B) [][]byte {
	mixedBatchOnce.Do(func() {
		shapes := []struct {
			w, h   int
			sub    jfif.Subsampling
			detail float64
		}{
			{640, 480, jfif.Sub420, 0.3},
			{800, 600, jfif.Sub422, 0.55},
			{1024, 768, jfif.Sub444, 0.4},
			{640, 480, jfif.Sub422, 0.8},
			{1280, 960, jfif.Sub420, 0.5},
			{2560, 1920, jfif.Sub420, 0.6}, // the straggler
			{800, 600, jfif.Sub444, 0.7},
			{1600, 1200, jfif.Sub422, 0.45},
		}
		for i, s := range shapes {
			items, err := imagegen.SizeSweep(s.sub, s.detail, [][2]int{{s.w, s.h}}, int64(8800+i))
			if err != nil {
				mixedBatchErr = err
				return
			}
			mixedBatchData = append(mixedBatchData, items[0].Data)
			mixedBatchPix += float64(s.w*s.h) / 1e6
		}
	})
	if mixedBatchErr != nil {
		b.Fatal(mixedBatchErr)
	}
	return mixedBatchData
}

func BenchmarkBatchMixedSizes(b *testing.B) {
	stream := mixedBatchCorpus(b)
	opts := hetjpeg.BatchOptions{
		Spec:    platform.GTX560(),
		Workers: runtime.GOMAXPROCS(0),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := hetjpeg.DecodeBatch(stream, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Failed != 0 {
			b.Fatalf("%d images failed", res.Failed)
		}
		for _, ir := range res.Images {
			ir.Res.Release()
		}
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds()
	b.ReportMetric(float64(len(stream)*b.N)/secs, "imgs/s")
	b.ReportMetric(mixedBatchPix*float64(b.N)/secs, "MPpx/s")
}

// benchBatchMixedScaled runs the mixed-size corpus through the band
// scheduler at a decode scale — the gallery thumbnailing workload. The
// MPpx/s metric stays in *coded* megapixels so rows are comparable
// across scales (same input work, shrinking output work).
func benchBatchMixedScaled(b *testing.B, scale hetjpeg.Scale) {
	stream := mixedBatchCorpus(b)
	opts := hetjpeg.BatchOptions{
		Spec:    platform.GTX560(),
		Workers: runtime.GOMAXPROCS(0),
		Scale:   scale,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := hetjpeg.DecodeBatch(stream, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Failed != 0 {
			b.Fatalf("%d images failed", res.Failed)
		}
		for _, ir := range res.Images {
			ir.Res.Release()
		}
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds()
	b.ReportMetric(float64(len(stream)*b.N)/secs, "imgs/s")
	b.ReportMetric(mixedBatchPix*float64(b.N)/secs, "MPpx/s")
}

// BenchmarkBatchScaledMixedSizes decodes the same mixed-size corpus to
// every scale through the pipelined band scheduler with per-scale
// calibration. The tracked scaled figures are the scaled third of the
// benchmark's batch_gallery workload (benchmark/README.md).
func BenchmarkBatchScaledMixedSizes(b *testing.B) {
	for _, scale := range []hetjpeg.Scale{hetjpeg.Scale1, hetjpeg.Scale2, hetjpeg.Scale4, hetjpeg.Scale8} {
		b.Run(fmt.Sprintf("div%d", scale.Denominator()), func(b *testing.B) { benchBatchMixedScaled(b, scale) })
	}
}

// Steady-state allocation: the slab pools should keep per-decode
// allocations flat when results are released back.
func BenchmarkDecodeSteadyStateAllocs(b *testing.B) {
	items, err := imagegen.SizeSweep(jfif.Sub422, 0.5, [][2]int{{1024, 768}}, 5)
	if err != nil {
		b.Fatal(err)
	}
	data := items[0].Data
	spec := platform.GTX560()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := hetjpeg.Decode(data, hetjpeg.Options{Mode: core.ModeGPU, Spec: spec})
		if err != nil {
			b.Fatal(err)
		}
		res.Release()
	}
}

// Extension: parallel Huffman decoding across restart intervals lifts
// the Amdahl ceiling of Figure 11. Reported: the new attainable speedup
// bound if entropy decoding parallelized across 4 cores (vs 1).
func BenchmarkExtension_RestartParallelAmdahl(b *testing.B) {
	spec := platform.GTX680()
	img := imagegen.Generate(imagegen.Scene{Seed: 88, Detail: 0.6}, 1600, 1200)
	data, err := hetjpeg.Encode(img, hetjpeg.EncodeOptions{Quality: 85, Subsampling: jfif.Sub422, RestartInterval: 16})
	if err != nil {
		b.Fatal(err)
	}
	var bound1, bound4 float64
	for i := 0; i < b.N; i++ {
		simd, err := hetjpeg.Decode(data, hetjpeg.Options{Mode: core.ModeSIMD, Spec: spec, VirtualOnly: true})
		if err != nil {
			b.Fatal(err)
		}
		bound1 = simd.TotalNs / simd.HuffNs
		// With restart-parallel entropy decoding across the 4 CPU cores
		// (0.85 parallel efficiency), the sequential floor shrinks.
		bound4 = simd.TotalNs / (simd.HuffNs / (4 * 0.85))
	}
	b.ReportMetric(bound1, "maxSpeedup-1core")
	b.ReportMetric(bound4, "maxSpeedup-4core")
}
