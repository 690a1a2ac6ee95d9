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
// The fit of each machine in Fitted is committed as data (Default);
// Train refits them.
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

// ItemProfile is the platform-independent summary of one training image.
type ItemProfile struct {
	W, H       int
	Sub        jfif.Subsampling
	Density    float64
	BitsPerRow []int64
	Blocks     int // total coefficient blocks
	MCURows    int
	// Frame is the released frame of the profiling decode: its
	// geometry (the MCU grid, planes and output size the cost plan
	// prices) stays valid, its coefficient and sample buffers are gone.
	Frame *jpegcodec.Frame
}

// SummarizeItem decodes one corpus item's entropy stage through the
// product decoder, so the profiled bits are the decoded ones, and
// collects everything platform-specific profiling needs. The frame's
// buffers go back to the decoder's pools before it returns.
func SummarizeItem(it imagegen.Item) (*ItemProfile, error) {
	f, ed, err := jpegcodec.PrepareDecode(it.Data)
	if err != nil {
		return nil, err
	}
	defer f.Release()
	if err := ed.DecodeAll(); err != nil {
		return nil, err
	}
	return &ItemProfile{
		W:          f.Img.Width,
		H:          f.Img.Height,
		Sub:        f.Sub,
		Density:    f.Img.EntropyDensity(),
		BitsPerRow: ed.BitsPerRow,
		Blocks:     f.TotalBlocks(),
		MCURows:    f.MCURows,
		Frame:      f,
	}, nil
}

// Summarize summarizes a whole corpus.
func Summarize(items []imagegen.Item) ([]*ItemProfile, error) {
	out := make([]*ItemProfile, 0, len(items))
	for _, it := range items {
		p, err := SummarizeItem(it)
		if err != nil {
			return nil, fmt.Errorf("perfmodel: %s: %w", it.Name, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// measure evaluates the calibrated cost model for one profiled image on
// one platform — the virtual equivalent of running the instrumented
// decoder of Section 5.1.
type measurement struct {
	w, h, d    float64
	tHuffPerPx float64
	pCPU       float64
	pCPUScalar float64
	pGPU       float64
	tDisp      float64
}

func measure(spec *platform.Spec, p *ItemProfile) measurement {
	var bits int64
	for _, b := range p.BitsPerRow {
		bits += b
	}
	tHuff := spec.HuffmanNs(bits, p.Blocks)
	pixels := p.W * p.H
	upsampled := p.Sub == jfif.Sub422 || p.Sub == jfif.Sub420

	recs := kernels.CostPlan(spec, p.Frame, 0, p.MCURows, -1, -1, true)
	var pGPU float64
	for _, r := range recs {
		pGPU += r.Ns
	}
	return measurement{
		w:          float64(p.W),
		h:          float64(p.H),
		d:          p.Density,
		tHuffPerPx: tHuff / float64(pixels),
		pCPU:       spec.CPUParallelNs(true, p.Blocks, pixels, p.H, upsampled),
		pCPUScalar: spec.CPUParallelNs(false, p.Blocks, pixels, p.H, upsampled),
		pGPU:       pGPU,
		tDisp:      spec.DispatchNs(p.Frame.CoeffBytes(0, p.MCURows)),
	}
}

// Fit profiles the training corpus on one platform and fits the model.
// Profiles must contain at least one subsampling; each subsampling is
// fitted independently (the paper trains 4:2:2 and 4:4:4 separately).
func Fit(spec *platform.Spec, profiles []*ItemProfile) (*Model, error) {
	bySub := make(map[string][]*ItemProfile)
	for _, p := range profiles {
		key := p.Sub.String()
		bySub[key] = append(bySub[key], p)
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

func fitSub(spec *platform.Spec, ps []*ItemProfile) (*SubModel, error) {
	n := len(ps)
	ws := make([]float64, n)
	hs := make([]float64, n)
	ds := make([]float64, n)
	huff := make([]float64, n)
	pcpu := make([]float64, n)
	pcpuS := make([]float64, n)
	pgpu := make([]float64, n)
	disp := make([]float64, n)
	for i, p := range ps {
		me := measure(spec, p)
		ws[i], hs[i], ds[i] = me.w, me.h, me.d
		huff[i] = me.tHuffPerPx
		pcpu[i] = me.pCPU
		pcpuS[i] = me.pCPUScalar
		pgpu[i] = me.pGPU
		disp[i] = me.tDisp
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
func SelectChunkRows(spec *platform.Spec, profiles []*ItemProfile, candidates []int) int {
	if len(candidates) == 0 {
		candidates = []int{1, 2, 4, 8, 16, 24, 32, 48, 64, 96, 128}
	}
	best := 0
	for _, p := range profiles {
		bestNs := 0.0
		bestRows := 0
		for _, c := range candidates {
			if c < 1 || c > p.MCURows {
				continue
			}
			ns := simulatePipelined(spec, p, c)
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
// execution (Figure 5b) for one profiled image and chunk size.
func simulatePipelined(spec *platform.Spec, p *ItemProfile, chunkRows int) float64 {
	blocksPerRow := p.Blocks / p.MCURows
	cpu, gpu := 0.0, 0.0
	for m0 := 0; m0 < p.MCURows; m0 += chunkRows {
		m1 := m0 + chunkRows
		if m1 > p.MCURows {
			m1 = p.MCURows
		}
		var bits int64
		for _, b := range p.BitsPerRow[m0:m1] {
			bits += b
		}
		cpu += spec.HuffmanNs(bits, (m1-m0)*blocksPerRow)
		cpu += spec.DispatchNs(p.Frame.CoeffBytes(m0, m1))
		var kns float64
		for _, r := range kernels.CostPlan(spec, p.Frame, m0, m1, -1, -1, true) {
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
	corpora := make([][]*ItemProfile, len(subs))
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
	var profiles []*ItemProfile
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
func fitAll(specs []*platform.Spec, profiles []*ItemProfile) ([]*Model, error) {
	var large []*ItemProfile
	for _, p := range profiles {
		if p.W*p.H >= 512*512 {
			large = append(large, p)
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

// ParallelMeasurement exposes the profiled virtual timings of one image
// on one platform (used by the harness for Figures 6 and 7).
type ParallelMeasurement struct {
	THuff      float64 // whole-image Huffman time, ns
	PCPU       float64 // SIMD parallel phase, ns
	PCPUScalar float64 // scalar parallel phase, ns
	PGPU       float64 // GPU parallel phase incl. transfers, ns
	TDisp      float64 // dispatch overhead, ns
}

// MeasureParallel evaluates the calibrated cost model for one profiled
// image.
func MeasureParallel(spec *platform.Spec, p *ItemProfile) ParallelMeasurement {
	me := measure(spec, p)
	return ParallelMeasurement{
		THuff:      me.tHuffPerPx * float64(p.W*p.H),
		PCPU:       me.pCPU,
		PCPUScalar: me.pCPUScalar,
		PGPU:       me.pGPU,
		TDisp:      me.tDisp,
	}
}
