// Package perfmodel implements Section 5.1: the offline profiling step
// that characterizes a CPU-GPU combination, multivariate polynomial
// regression (degree <= 7, AIC-selected, Horner form) over the profiled
// timings, and the chunk-size selection of Section 4.5. The fitted model
// predicts, from image width, height and entropy density alone:
//
//	THuffPerPixel(d)   - sequential Huffman decode rate (ns/pixel)
//	PCPU(w, h)         - CPU (SIMD) parallel-phase time
//	PCPUScalar(w, h)   - CPU scalar parallel-phase time
//	PGPU(w, h)         - GPU parallel-phase time incl. transfers
//	TDisp(w, h)        - CPU-side dispatch overhead
//
// An image's profile is the released frame of its entropy-only decode
// (SummarizeItem): its geometry and per-row entropy bits are all that
// profiling reads. MeasureParallel prices a frame on one platform, Fit
// regresses those figures, and SelectChunkRows sweeps chunk sizes over
// the same frames. The fit of each machine in Fitted is committed as
// data (Default); Train refits them.
package perfmodel

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/kernels"
	"hetjpeg/internal/mathx"
	"hetjpeg/internal/platform"
)

// MaxDegree is the paper's regression degree bound.
const MaxDegree = 7

// SubModel holds the fitted forms for one chroma subsampling.
type SubModel struct {
	HuffPerPixel mathx.Poly1 `json:"huffPerPixel"` // ns/pixel as f(density)
	PCPU         mathx.Poly2 `json:"pcpu"`         // SIMD parallel phase, ns
	PCPUScalar   mathx.Poly2 `json:"pcpuScalar"`   // scalar parallel phase, ns
	PGPU         mathx.Poly2 `json:"pgpu"`         // GPU parallel phase incl. transfers, ns
	TDisp        mathx.Poly2 `json:"tdisp"`        // dispatch overhead, ns
}

// THuff predicts whole-image Huffman time (Equation 4).
func (m *SubModel) THuff(w, h, d float64) float64 {
	return m.HuffPerPixel.Eval(d) * w * h
}

// Model is the per-platform performance model.
type Model struct {
	Platform  string               `json:"platform"`
	ChunkRows int                  `json:"chunkRows"` // pipelining chunk size in MCU rows
	Subs      map[string]*SubModel `json:"subs"`      // keyed by jfif.Subsampling.String()
}

// ForSub returns the sub-model for a subsampling, or nil.
func (m *Model) ForSub(sub jfif.Subsampling) *SubModel {
	return m.Subs[sub.String()]
}

// SummarizeItem runs one corpus item's entropy stage through the
// product decoder (jpegcodec.Open, then Entropy), so the profiled bits
// are the decoded ones, and returns its released frame: the geometry
// (size, subsampling, file size, the MCU grid and planes the cost plan
// prices) and BitsPerRow are everything profiling reads, and the
// coefficient and sample buffers are back in the decoder's pools.
func SummarizeItem(it imagegen.Item) (*jpegcodec.Frame, error) {
	d, err := jpegcodec.Open(it.Data, jpegcodec.Options{})
	if err != nil {
		return nil, err
	}
	if err := d.Entropy(nil); err != nil {
		return nil, err
	}
	return d.Frame(), nil
}

// Summarize summarizes a whole corpus.
func Summarize(items []imagegen.Item) ([]*jpegcodec.Frame, error) {
	out := make([]*jpegcodec.Frame, 0, len(items))
	for _, it := range items {
		f, err := SummarizeItem(it)
		if err != nil {
			return nil, fmt.Errorf("perfmodel: %s: %w", it.Name, err)
		}
		out = append(out, f)
	}
	return out, nil
}

// ParallelMeasurement is the calibrated cost model evaluated for one
// profiled image on one platform: the virtual equivalent of running the
// instrumented decoder of Section 5.1, what Fit regresses, and the
// points of Figures 6 and 7.
type ParallelMeasurement struct {
	THuff      float64 // whole-image Huffman time, ns
	PCPU       float64 // SIMD parallel phase, ns
	PCPUScalar float64 // scalar parallel phase, ns
	PGPU       float64 // GPU parallel phase incl. transfers, ns
	TDisp      float64 // dispatch overhead, ns
}

// MeasureParallel evaluates the calibrated cost model for one profiled
// frame.
func MeasureParallel(spec *platform.Spec, f *jpegcodec.Frame) ParallelMeasurement {
	var bits int64
	for _, b := range f.BitsPerRow {
		bits += b
	}
	blocks := f.TotalBlocks()
	pixels := f.Img.Width * f.Img.Height
	upsampled := f.Sub == jfif.Sub422 || f.Sub == jfif.Sub420
	var pGPU float64
	for _, r := range kernels.CostPlan(spec, f, 0, f.MCURows, -1, -1, true) {
		pGPU += r.Ns
	}
	return ParallelMeasurement{
		THuff:      spec.HuffmanNs(bits, blocks),
		PCPU:       spec.CPUParallelNs(true, blocks, pixels, f.Img.Height, upsampled),
		PCPUScalar: spec.CPUParallelNs(false, blocks, pixels, f.Img.Height, upsampled),
		PGPU:       pGPU,
		TDisp:      spec.DispatchNs(f.CoeffBytes(0, f.MCURows)),
	}
}

// Fit fits the model of one platform to the profiled frames. Profiles
// must contain at least one subsampling; each subsampling is fitted
// independently (the paper trains 4:2:2 and 4:4:4 separately).
func Fit(spec *platform.Spec, profiles []*jpegcodec.Frame) (*Model, error) {
	bySub := make(map[string][]*jpegcodec.Frame)
	for _, f := range profiles {
		key := f.Sub.String()
		bySub[key] = append(bySub[key], f)
	}
	m := &Model{Platform: spec.Name, ChunkRows: spec.DefaultChunkRows, Subs: make(map[string]*SubModel)}
	for key, ps := range bySub {
		sm, err := fitSub(spec, ps)
		if err != nil {
			return nil, fmt.Errorf("perfmodel: fitting %s: %w", key, err)
		}
		m.Subs[key] = sm
	}
	return m, nil
}

func fitSub(spec *platform.Spec, ps []*jpegcodec.Frame) (*SubModel, error) {
	n := len(ps)
	ws := make([]float64, n)
	hs := make([]float64, n)
	ds := make([]float64, n)
	huff := make([]float64, n)
	pcpu := make([]float64, n)
	pcpuS := make([]float64, n)
	pgpu := make([]float64, n)
	disp := make([]float64, n)
	for i, f := range ps {
		me := MeasureParallel(spec, f)
		ws[i], hs[i], ds[i] = float64(f.Img.Width), float64(f.Img.Height), f.Img.EntropyDensity()
		huff[i] = me.THuff / float64(f.Img.Width*f.Img.Height)
		pcpu[i] = me.PCPU
		pcpuS[i] = me.PCPUScalar
		pgpu[i] = me.PGPU
		disp[i] = me.TDisp
	}
	var sm SubModel
	var err error
	// Bound the bivariate degree by sample count as well as MaxDegree.
	maxDeg2 := MaxDegree
	for maxDeg2 > 1 && mathx.NumTerms2(maxDeg2) > n/2 {
		maxDeg2--
	}
	if sm.HuffPerPixel, err = mathx.FitPoly1AIC(ds, huff, MaxDegree); err != nil {
		return nil, fmt.Errorf("huffman fit: %w", err)
	}
	if sm.PCPU, err = mathx.FitPoly2AIC(ws, hs, pcpu, maxDeg2); err != nil {
		return nil, fmt.Errorf("pcpu fit: %w", err)
	}
	if sm.PCPUScalar, err = mathx.FitPoly2AIC(ws, hs, pcpuS, maxDeg2); err != nil {
		return nil, fmt.Errorf("pcpu scalar fit: %w", err)
	}
	if sm.PGPU, err = mathx.FitPoly2AIC(ws, hs, pgpu, maxDeg2); err != nil {
		return nil, fmt.Errorf("pgpu fit: %w", err)
	}
	if sm.TDisp, err = mathx.FitPoly2AIC(ws, hs, disp, maxDeg2); err != nil {
		return nil, fmt.Errorf("tdisp fit: %w", err)
	}
	return &sm, nil
}

// SelectChunkRows implements the Section 4.5 chunk-size profiling: for
// each large profiled image, sweep chunk sizes from the full height down
// to one MCU row, simulate the pipelined GPU execution in virtual time,
// and keep the best size per image. The final choice is the largest size
// on the best list (guarding GPU utilization).
func SelectChunkRows(spec *platform.Spec, profiles []*jpegcodec.Frame, candidates []int) int {
	if len(candidates) == 0 {
		candidates = []int{1, 2, 4, 8, 16, 24, 32, 48, 64, 96, 128}
	}
	best := 0
	for _, f := range profiles {
		bestNs := 0.0
		bestRows := 0
		for _, c := range candidates {
			if c < 1 || c > f.MCURows {
				continue
			}
			ns := simulatePipelined(spec, f, c)
			if bestRows == 0 || ns < bestNs {
				bestNs, bestRows = ns, c
			}
		}
		if bestRows > best {
			best = bestRows
		}
	}
	if best == 0 {
		best = spec.DefaultChunkRows
	}
	return best
}

// simulatePipelined computes the virtual makespan of pipelined GPU
// execution (Figure 5b) for one profiled frame and chunk size.
func simulatePipelined(spec *platform.Spec, f *jpegcodec.Frame, chunkRows int) float64 {
	blocksPerRow := f.TotalBlocks() / f.MCURows
	cpu, gpu := 0.0, 0.0
	for m0 := 0; m0 < f.MCURows; m0 += chunkRows {
		m1 := min(m0+chunkRows, f.MCURows)
		var bits int64
		for _, b := range f.BitsPerRow[m0:m1] {
			bits += b
		}
		cpu += spec.HuffmanNs(bits, (m1-m0)*blocksPerRow)
		cpu += spec.DispatchNs(f.CoeffBytes(m0, m1))
		var kns float64
		for _, r := range kernels.CostPlan(spec, f, m0, m1, -1, -1, true) {
			kns += r.Ns
		}
		// The chunk's device work starts when both the queue is free and
		// the CPU has dispatched it.
		if cpu > gpu {
			gpu = cpu
		}
		gpu += kns
	}
	if gpu > cpu {
		return gpu
	}
	return cpu
}

// Save writes the model as JSON.
func (m *Model) Save(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Train is the refit behind the committed models (see Default): it
// builds and profiles the default training corpora (all three
// subsamplings, one goroutine each; every scene is seeded from its grid
// position, so a corpus does not depend on when it is built), then fits
// each spec's model and selects its chunk size from the shared
// profiles, in the order given. Building the 432-image corpus takes
// about a minute of CPU; each machine's fit adds about 0.1 s.
func Train(specs ...*platform.Spec) ([]*Model, error) {
	subs := []jfif.Subsampling{jfif.Sub422, jfif.Sub444, jfif.Sub420}
	corpora := make([][]*jpegcodec.Frame, len(subs))
	errs := make([]error, len(subs))
	var wg sync.WaitGroup
	for i, sub := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			items, err := imagegen.Build(imagegen.DefaultTraining(sub))
			if err == nil {
				corpora[i], err = Summarize(items)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	var profiles []*jpegcodec.Frame
	for i, ps := range corpora {
		if errs[i] != nil {
			return nil, errs[i]
		}
		profiles = append(profiles, ps...)
	}
	return fitAll(specs, profiles)
}

// fitAll fits every spec from one set of profiles, which it only reads,
// and selects each chunk size on the largest of them.
func fitAll(specs []*platform.Spec, profiles []*jpegcodec.Frame) ([]*Model, error) {
	var large []*jpegcodec.Frame
	for _, f := range profiles {
		if f.Img.Width*f.Img.Height >= 512*512 {
			large = append(large, f)
		}
	}
	models := make([]*Model, len(specs))
	for i, spec := range specs {
		m, err := Fit(spec, profiles)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		m.ChunkRows = SelectChunkRows(spec, large, nil)
		models[i] = m
	}
	return models, nil
}
