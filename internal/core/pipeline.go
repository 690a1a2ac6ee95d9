package core

import (
	"context"
	"errors"
	"fmt"

	"hetjpeg/internal/jpegcodec"
)

// Prepared is a decode split open at the paper's pipeline boundary: the
// strictly sequential entropy stage on one side and the data-parallel
// back phase on the other, handed over band by band. The batch band
// scheduler drives the two stages itself, so it needs the pieces of
// Decode as separate steps:
//
//	p, _ := core.Prepare(data, opts)              // parse + allocate the frame
//	bp := jpegcodec.PlanBands(p.Frame(), 0, p.Frame().MCURows, rows)
//	for !p.EntropyDone() {
//		from, to, _ := p.EntropyStep(ctx, bp) // stage 1, a band at a time
//		... run bands [from, to) into p.Output() on any pool ...
//	}
//	res, _ := p.FinishVirtual()                   // the mode's virtual schedule
//
// Decode itself is Prepare + EntropyDecode (the steps over one band) +
// FinishVirtual, then jpegcodec.ParallelPhaseScalar over the frame.
type Prepared struct {
	st       *decodeState
	finished bool
}

// Prepare parses the stream, allocates the frame's whole-image buffers
// and resolves ModeAuto. No entropy decoding happens yet, and the RGB
// output is not allocated until it has succeeded.
func Prepare(data []byte, opts Options) (*Prepared, error) {
	if opts.Spec == nil {
		return nil, errors.New("core: Options.Spec is required")
	}
	opts.Mode = opts.Mode.Resolve(opts.Model)
	var (
		f   *jpegcodec.Frame
		ed  *jpegcodec.EntropyDecoder
		err error
	)
	if opts.Salvage {
		f, ed, err = jpegcodec.PrepareDecodeSalvageScaled(data, opts.Scale)
	} else {
		f, ed, err = jpegcodec.PrepareDecodeScaled(data, opts.Scale)
	}
	if err != nil {
		return nil, err
	}
	st := &decodeState{
		opts: opts,
		f:    f,
		ed:   ed,
		d:    f.Img.EntropyDensity(),
	}
	return &Prepared{st: st}, nil
}

// Frame exposes the parsed frame (geometry, coefficient buffers).
func (p *Prepared) Frame() *jpegcodec.Frame { return p.st.f }

// Output exposes the whole-image RGB buffer external band executors
// write into (nil until EntropyStep readied the first band); it becomes
// Result.Image after FinishVirtual.
func (p *Prepared) Output() *jpegcodec.RGBImage { return p.st.out }

// EntropyDone reports whether stage 1 has decoded the whole image.
func (p *Prepared) EntropyDone() bool { return p.st.ed == nil }

// pollRows bounds the entropy work between two polls of the context: 32
// MCU rows are a few hundred microseconds.
const pollRows = 32

// EntropyStep runs stage 1, sequential Huffman decoding, until the next
// band of bp (which covers the frame) is ready or pollRows rows of work
// are done, and returns the bands [from, to) that became ready. It polls
// ctx (may be nil) first, so a cancelled request abandons a large image
// mid-stream. The RGB output is allocated with the first ready band: an
// image holds its largest byte buffer only once there is something to
// put in it (a VirtualOnly decode gets it zeroed). After the last row
// the step prices the rows for the virtual schedules and drops the
// entropy decoder, which reads the input.
func (p *Prepared) EntropyStep(ctx context.Context, bp *jpegcodec.BandPlan) (from, to int, err error) {
	st := p.st
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, 0, err
		}
	}
	if from, to, err = bp.Step(st.ed, pollRows); err != nil {
		return from, to, err
	}
	if to > 0 && st.out == nil {
		st.out = jpegcodec.NewRGBImage(st.f.OutW, st.f.OutH)
		if st.opts.VirtualOnly {
			clear(st.out.Pix)
		}
	}
	if st.ed.Done() {
		st.rowCost = make([]float64, st.f.MCURows)
		blocksPerRow := blocksPerMCURow(st.f)
		//hetlint:nopoll one polynomial evaluation per MCU row, microseconds for the whole image
		for i, bits := range st.ed.BitsPerRow {
			st.rowCost[i] = st.opts.Spec.HuffmanNs(bits, blocksPerRow)
		}
		if rep := st.ed.SalvageReport(); rep.Impaired() {
			st.res.Salvage = rep
		}
		st.ed = nil
	}
	return from, to, nil
}

// EntropyDecode runs stage 1 to its end: EntropyStep over a plan of
// one band.
func (p *Prepared) EntropyDecode(ctx context.Context) error {
	bp := jpegcodec.PlanBands(p.st.f, 0, p.st.f.MCURows, p.st.f.MCURows)
	for !p.EntropyDone() {
		if _, _, err := p.EntropyStep(ctx, bp); err != nil {
			return err
		}
	}
	return nil
}

// FinishVirtual builds the resolved mode's virtual timeline, statistics
// and result. It executes nothing: the caller owns the back phase (band
// tasks into Output, or Decode's one scalar pass) and the frame's
// release. The mode runners price the device work through
// kernels.CostPlan, so the result is the same whoever produces the
// pixels.
func (p *Prepared) FinishVirtual() (*Result, error) {
	if !p.EntropyDone() {
		return nil, errors.New("core: finish before EntropyDecode")
	}
	if p.finished {
		return nil, errors.New("core: decode already finished")
	}
	p.finished = true
	st := p.st
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
	st.res.Image = st.out
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

// Release returns the prepared decode's buffers (coefficients, sample
// planes, RGB pixels) to the slab pools — the abandon path for a decode
// that failed or was cancelled before its result was handed out. Do not
// call it after the result's Image left the scheduler.
func (p *Prepared) Release() {
	p.st.f.Release()
	if p.st.out != nil {
		p.st.out.Release()
	}
}
