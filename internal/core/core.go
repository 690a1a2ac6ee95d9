// Package core implements the heterogeneous JPEG decoder of the paper:
// six execution modes (sequential, SIMD, GPU, pipelined GPU, SPS, PPS)
// over the re-engineered whole-image-buffer codec, the priced OpenCL
// kernels of the simulated device, the fitted performance model and the
// dynamic partitioning schemes. Every mode's pixels come from the one
// sequential decode (jpegcodec's Run on one worker), so they are
// identical by construction; modes differ only in how the work is
// scheduled, which Price builds into a virtual timeline from the
// finished frame alone.
package core

import (
	"errors"
	"fmt"

	"hetjpeg/internal/jpegcodec"
	"hetjpeg/internal/kernels"
	"hetjpeg/internal/perfmodel"
	"hetjpeg/internal/platform"
	"hetjpeg/internal/sim"
)

// Mode selects the execution strategy (the six decoders of Section 6,
// plus the ModeAuto sentinel that picks one).
type Mode int

const (
	// ModeAuto, the zero value, resolves to ModePPS when a performance
	// model is available and ModePipelinedGPU otherwise, so a zero-value
	// Options is self-describing ("best schedule I can run").
	ModeAuto Mode = iota
	// ModeSequential is the libjpeg-style single-threaded scalar decoder.
	ModeSequential
	// ModeSIMD is the libjpeg-turbo analog: same schedule as sequential
	// with the fast CPU parallel phase. It is the paper's baseline.
	ModeSIMD
	// ModeGPU runs the whole parallel phase on the device after full
	// Huffman decoding (Figure 5a).
	ModeGPU
	// ModePipelinedGPU overlaps chunked Huffman decoding with device
	// execution (Figure 5b, Section 4.5).
	ModePipelinedGPU
	// ModeSPS is the simple partitioning scheme (Section 5.2.1).
	ModeSPS
	// ModePPS is the pipelined partitioning scheme with re-partitioning
	// (Section 5.2.2).
	ModePPS
)

var modeNames = map[Mode]string{
	ModeAuto:         "auto",
	ModeSequential:   "sequential",
	ModeSIMD:         "simd",
	ModeGPU:          "gpu",
	ModePipelinedGPU: "pipeline",
	ModeSPS:          "sps",
	ModePPS:          "pps",
}

// Resolve maps ModeAuto to the concrete mode the decoder would pick
// given model availability; concrete modes resolve to themselves.
func (m Mode) Resolve(model *perfmodel.Model) Mode {
	if m != ModeAuto {
		return m
	}
	if model != nil {
		return ModePPS
	}
	return ModePipelinedGPU
}

// String implements fmt.Stringer.
func (m Mode) String() string {
	if n, ok := modeNames[m]; ok {
		return n
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// AllModes lists the six modes in the paper's order.
func AllModes() []Mode {
	return []Mode{ModeSequential, ModeSIMD, ModeGPU, ModePipelinedGPU, ModeSPS, ModePPS}
}

// Options configures a decode.
type Options struct {
	Mode Mode
	// Spec is the simulated machine; required.
	Spec *platform.Spec
	// Model is the fitted performance model; required for SPS and PPS.
	Model *perfmodel.Model
	// ChunkRows overrides the pipelining chunk size (MCU rows).
	ChunkRows int
	// SplitKernels disables the Section 4.4 kernel merging (ablation).
	SplitKernels bool
	// VirtualOnly runs the entropy stage alone (jpegcodec's Entropy):
	// no back phase and no RGB output, so the returned Image is nil. The
	// timeline is the same as an executed decode's, since Price reads
	// only the frame's geometry and per-row entropy bits. Large
	// experiment sweeps use it to evaluate schedules cheaply.
	VirtualOnly bool
	// Scale selects decode-to-scale (1/2, 1/4, 1/8): the back phase
	// reconstructs directly at the reduced resolution through scaled
	// IDCT kernels, in every mode. The zero value decodes full size;
	// invalid values fail with jpegcodec.ErrUnsupportedScale.
	Scale jpegcodec.Scale
	// Salvage switches the entropy stage into error-resilient mode: an
	// entropy error resynchronizes at the next restart marker (zeroing
	// the lost MCUs) instead of failing the decode. An impaired decode
	// returns BOTH a usable Result (Result.Salvage describes the damage)
	// and an error wrapping jpegcodec.ErrPartialData. Salvage lives
	// entirely in the sequential entropy stage, so every mode and
	// scheduler still produces byte-identical pixels. On a clean stream
	// behavior is exactly strict mode.
	Salvage bool
}

// Stats reports scheduling decisions.
type Stats struct {
	MCURows       int
	GPUMCURows    int // MCU rows processed by the device
	CPUMCURows    int // MCU rows processed by the CPU tile
	Chunks        int
	Repartitioned bool
	// RepartitionDeltaRows is the signed MCU-row change of the CPU share
	// made by the Equation (16) re-partitioning step.
	RepartitionDeltaRows int
	// EntropyScans counts the entropy-coded scans: 1 for baseline,
	// the scan-script length for progressive images.
	EntropyScans int
	// Scale is the decode scale denominator that ran (1, 2, 4 or 8).
	Scale int
}

// Result is a finished decode.
type Result struct {
	Image *jpegcodec.RGBImage
	// Frame carries the decode's geometry (Sub, DCOnly, the MCU grid).
	// Its coefficient and sample slabs went back to the pools when the
	// decode finished, whichever scheduler ran it.
	Frame *jpegcodec.Frame
	// Timeline is the priced schedule (Price); nil, with TotalNs and
	// HuffNs zero, for an Unpriced result such as the batch executor's.
	Timeline *sim.Timeline
	// TotalNs is the virtual makespan of the schedule.
	TotalNs float64
	// HuffNs is the total virtual Huffman time (the Amdahl bound's
	// denominator, Figure 11).
	HuffNs float64
	Stats  Stats
	// Salvage is non-nil iff Options.Salvage was set and the stream was
	// impaired: the decode absorbed entropy errors and the report lists
	// what was lost. A salvaged decode's pixels are fully usable.
	Salvage *jpegcodec.SalvageReport
}

// Release returns the decode's RGB pixels (and whatever the frame still
// holds) to the codec's slab pools and nils Image.Pix. Call it only when
// the result's pixels are no longer needed — a long-running service does
// so after encoding its response, keeping steady-state allocation flat.
// Releasing is optional; an unreleased result is simply
// garbage-collected.
func (r *Result) Release() {
	if r.Frame != nil {
		r.Frame.Release()
	}
	if r.Image != nil {
		r.Image.Release()
	}
}

// Decode decompresses a baseline or progressive JPEG stream and prices
// it under the given mode: jpegcodec.Open, then Run(1) for the pixels
// (Entropy alone under VirtualOnly, with no Image), then Price over the
// released frame. Every mode's pixels come from that one sequential
// decode; the mode's schedule only places the per-row costs on the
// virtual timeline. With Options.Salvage set, an impaired-but-decodable
// stream returns BOTH a usable *Result and an error wrapping
// jpegcodec.ErrPartialData (Result.Salvage holds the report); callers
// must check the Result before treating the error as fatal.
func Decode(data []byte, opts Options) (*Result, error) {
	p, err := Prepare(data, opts)
	if err != nil {
		return nil, err
	}
	var img *jpegcodec.RGBImage
	if opts.VirtualOnly {
		err = p.Entropy(nil)
	} else {
		img, err = p.Run(1)
	}
	if err != nil && !errors.Is(err, jpegcodec.ErrPartialData) {
		return nil, err
	}
	res, err := Price(p.Frame(), p.SalvageReport(), opts)
	if err != nil {
		if img != nil {
			img.Release()
		}
		return nil, err
	}
	res.Image = img
	return res, res.Salvage.Err()
}

// Unpriced is the result of a decode whose back phase ran on the wall
// clock: its pixels, its frame, its salvage report when impaired and
// the frame's own statistics (MCURows, Scale, EntropyScans). It has no
// timeline; Price builds one.
func Unpriced(img *jpegcodec.RGBImage, f *jpegcodec.Frame, rep *jpegcodec.SalvageReport) *Result {
	res := &Result{Image: img, Frame: f, Stats: Stats{MCURows: f.MCURows, Scale: f.Scale, EntropyScans: 1}}
	if f.Img.Progressive {
		res.Stats.EntropyScans = len(f.Img.Scans)
	}
	if rep.Impaired() {
		res.Salvage = rep
	}
	return res
}

// Price builds the virtual schedule of an ended decode under the
// options' resolved mode: the timeline, its makespan, the Huffman time
// and the scheduling statistics. It reads only the frame's geometry and
// BitsPerRow, which Frame.Release keeps, so a delivered result can be
// priced after its slabs went back to the pools; rep (nil for a strict
// decode) is carried when impaired. It executes nothing: the mode
// runners price the device work through kernels.CostPlan, so the
// schedule is the same whoever produced the pixels. The result has no
// Image.
func Price(f *jpegcodec.Frame, rep *jpegcodec.SalvageReport, opts Options) (*Result, error) {
	if opts.Spec == nil {
		return nil, errors.New("core: Options.Spec is required")
	}
	if f.BitsPerRow == nil {
		return nil, errors.New("core: Price before the entropy stage ended")
	}
	opts.Mode = opts.Mode.Resolve(opts.Model)
	st := &decodeState{opts: opts, f: f, d: f.Img.EntropyDensity(), res: Unpriced(nil, f, rep)}
	st.rowCost = make([]float64, f.MCURows)
	blocksPerRow := blocksPerMCURow(f)
	//hetlint:nopoll one polynomial evaluation per MCU row, microseconds for the whole image
	for i, bits := range f.BitsPerRow {
		st.rowCost[i] = opts.Spec.HuffmanNs(bits, blocksPerRow)
	}
	var err error
	switch opts.Mode {
	case ModeSequential:
		err = st.runCPUOnly(false)
	case ModeSIMD:
		err = st.runCPUOnly(true)
	case ModeGPU:
		err = st.runGPU(false)
	case ModePipelinedGPU:
		err = st.runGPU(true)
	case ModeSPS:
		err = st.runPartitioned(false)
	case ModePPS:
		err = st.runPartitioned(true)
	default:
		err = fmt.Errorf("core: unknown mode %v", opts.Mode)
	}
	if err != nil {
		return nil, err
	}
	st.res.HuffNs = st.huffTotal()
	st.res.TotalNs = st.res.Timeline.Makespan()
	return st.res, nil
}

// decodeState carries one decode through its mode runner.
type decodeState struct {
	opts Options
	f    *jpegcodec.Frame
	d    float64 // entropy density

	rowCost []float64 // virtual huffman ns per MCU row
	res     *Result
}

// progressive reports whether the frame is multi-scan. Progressive
// coefficients are final only after the last scan, so the virtual
// schedules treat the whole entropy stage as a serial prefix: no device
// chunk may overlap Huffman work, and the PPS mid-decode re-partition
// (which corrects the split while entropy and device work overlap) does
// not apply. The back phase itself is unchanged.
func (st *decodeState) progressive() bool { return st.f.Img.Progressive }

func (st *decodeState) huffTotal() float64 {
	var s float64
	for _, c := range st.rowCost {
		s += c
	}
	return s
}

func (st *decodeState) chunkRows() int {
	if st.opts.ChunkRows > 0 {
		return st.opts.ChunkRows
	}
	if st.opts.Model != nil && st.opts.Model.ChunkRows > 0 {
		return st.opts.Model.ChunkRows
	}
	return st.opts.Spec.DefaultChunkRows
}

// blocksPerMCURow counts coefficient blocks per MCU row.
func blocksPerMCURow(f *jpegcodec.Frame) int {
	n := 0
	for _, c := range f.Img.Components {
		n += c.H * c.V
	}
	return n * f.MCUsPerRow
}

// regionBlocks counts coefficient blocks in MCU rows [m0, m1).
func regionBlocks(f *jpegcodec.Frame, m0, m1 int) int {
	n := 0
	for _, p := range f.Planes {
		n += (m1 - m0) * p.V * p.BlocksPerRow
	}
	return n
}

// addHuffTasks appends per-MCU-row Huffman tasks for rows [m0, m1) on the
// CPU resource and returns the last task (or nil).
func (st *decodeState) addHuffTasks(tl *sim.Timeline, m0, m1 int) *sim.Task {
	var last *sim.Task
	for m := m0; m < m1; m++ {
		last = tl.Add(sim.ResCPU, sim.KindHuffman, fmt.Sprintf("huff row %d", m), st.rowCost[m])
	}
	return last
}

// addGPUChunkTasks appends dispatch (CPU) and the planned device records
// (GPU queue) for one chunk. The first device record depends on the
// dispatch.
func (st *decodeState) addGPUChunkTasks(tl *sim.Timeline, ck *gpuChunk) {
	disp := tl.Add(sim.ResCPU, sim.KindDispatch, fmt.Sprintf("dispatch[%d,%d)", ck.m0, ck.m1),
		st.opts.Spec.DispatchNs(st.f.CoeffBytes(ck.m0, ck.m1)))
	dep := disp
	for _, r := range ck.recs {
		dep = tl.Add(sim.ResGPU, r.Kind, r.Label, r.Ns, dep)
	}
}

// gpuChunk is one unit of device work: MCU rows [m0, m1), whose colour
// conversion covers output rows [y0, y1), priced by recs.
type gpuChunk struct {
	m0, m1 int
	y0, y1 int
	recs   []kernels.CostRecord
}

// makeChunks slices GPU MCU rows [0, s) into pipeline chunks of size c,
// assigning 4:2:0-aware pixel-row bounds. yEnd is the pixel row where the
// GPU region's conversion must stop (the CPU tile owns rows beyond it).
func (st *decodeState) makeChunks(s, c int, yEnd int) []*gpuChunk {
	var chunks []*gpuChunk
	for m0 := 0; m0 < s; m0 += c {
		m1 := m0 + c
		if m1 > s {
			m1 = s
		}
		y0 := st.f.RowBound(m0)
		var y1 int
		if m1 == s {
			y1 = yEnd
		} else {
			y1 = st.f.RowBound(m1)
		}
		chunks = append(chunks, &gpuChunk{m0: m0, m1: m1, y0: y0, y1: y1})
	}
	return chunks
}

// fillChunkPlans prices every chunk through kernels.CostPlan, the one
// device cost model.
func (st *decodeState) fillChunkPlans(chunks []*gpuChunk) {
	for _, ck := range chunks {
		ck.recs = kernels.CostPlan(st.opts.Spec, st.f, ck.m0, ck.m1, ck.y0, ck.y1, !st.opts.SplitKernels)
	}
}
