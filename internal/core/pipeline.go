package core

import (
	"context"
	"errors"
	"fmt"

	"hetjpeg/internal/jpegcodec"
)

// Prepared is a decode split open at the paper's pipeline boundary: the
// strictly sequential entropy stage on one side and the data-parallel
// back phase on the other, handed over band by band. It is the
// jpegcodec handle, which owns the frame, the entropy step and the
// output, plus what prices the resolved mode's virtual time. The batch
// band scheduler drives the two stages itself:
//
//	p, _ := core.Prepare(data, opts)         // jpegcodec.Open: parse + allocate the frame
//	bp := jpegcodec.PlanBands(p.Frame(), 0, p.Frame().MCURows, rows)
//	for !p.Done() {
//		from, to, _ := p.Step(ctx, bp)   // stage 1, a band at a time
//		... run bands [from, to) into p.Output() on any pool ...
//	}
//	res, _ := p.FinishVirtual()              // the mode's virtual schedule
//
// Decode itself is Prepare + EntropyDecode (the steps over one band) +
// FinishVirtual, then jpegcodec.ParallelPhaseScalar over the frame.
type Prepared struct {
	*jpegcodec.Decode
	st       decodeState
	finished bool
}

// Prepare opens the stream (jpegcodec.Open at the options' scale and
// salvage mode) and resolves ModeAuto. No entropy decoding happens yet,
// and the RGB output is not allocated until the first band is ready.
func Prepare(data []byte, opts Options) (*Prepared, error) {
	if opts.Spec == nil {
		return nil, errors.New("core: Options.Spec is required")
	}
	opts.Mode = opts.Mode.Resolve(opts.Model)
	d, err := jpegcodec.Open(data, jpegcodec.Options{Scale: opts.Scale, Salvage: opts.Salvage})
	if err != nil {
		return nil, err
	}
	f := d.Frame()
	return &Prepared{Decode: d, st: decodeState{opts: opts, f: f, d: f.Img.EntropyDensity()}}, nil
}

// EntropyDecode runs stage 1 to its end: the handle's Step over a plan
// of one band.
func (p *Prepared) EntropyDecode(ctx context.Context) error {
	f := p.Frame()
	bp := jpegcodec.PlanBands(f, 0, f.MCURows, f.MCURows)
	for !p.Done() {
		if _, _, err := p.Step(ctx, bp); err != nil {
			return err
		}
	}
	return nil
}

// FinishVirtual prices the decoded rows and builds the resolved mode's
// virtual timeline, statistics and result. It executes nothing: the
// caller owns the back phase (band tasks into Output, or Decode's one
// scalar pass) and the frame's release. The mode runners price the
// device work through kernels.CostPlan, so the result is the same
// whoever produces the pixels. A VirtualOnly decode's Image is zeroed.
func (p *Prepared) FinishVirtual() (*Result, error) {
	if !p.Done() {
		return nil, errors.New("core: finish before EntropyDecode")
	}
	if p.finished {
		return nil, errors.New("core: decode already finished")
	}
	p.finished = true
	st := &p.st
	st.rowCost = make([]float64, st.f.MCURows)
	blocksPerRow := blocksPerMCURow(st.f)
	//hetlint:nopoll one polynomial evaluation per MCU row, microseconds for the whole image
	for i, bits := range p.BitsPerRow() {
		st.rowCost[i] = st.opts.Spec.HuffmanNs(bits, blocksPerRow)
	}
	if rep := p.SalvageReport(); rep.Impaired() {
		st.res.Salvage = rep
	}
	out := p.Output()
	if st.opts.VirtualOnly {
		clear(out.Pix)
	}
	var err error
	switch st.opts.Mode {
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
		err = fmt.Errorf("core: unknown mode %v", st.opts.Mode)
	}
	if err != nil {
		return nil, err
	}
	st.res.Image = out
	st.res.Frame = st.f
	st.res.Stats.MCURows = st.f.MCURows
	st.res.Stats.Scale = st.f.Scale
	st.res.Stats.EntropyScans = 1
	if st.f.Img.Progressive {
		st.res.Stats.EntropyScans = len(st.f.Img.Scans)
	}
	st.res.HuffNs = st.huffTotal()
	st.res.TotalNs = st.res.Timeline.Makespan()
	// A copy, so that the result, which a cache may keep, does not keep
	// the decode state alive.
	res := st.res
	return &res, nil
}
