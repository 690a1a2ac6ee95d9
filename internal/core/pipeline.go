package core

import (
	"context"
	"errors"
	"fmt"

	"hetjpeg/internal/jpegcodec"
)

// Prepared is a decode split open at the paper's pipeline boundary: the
// strictly sequential entropy stage on one side and the data-parallel
// back phase on the other. The batch band scheduler drives the two
// stages itself — entropy decoding several images in flight while a
// shared worker pool executes back-phase bands from all of them — so it
// needs the pieces of Decode as separate steps:
//
//	p, _ := core.Prepare(data, opts)       // parse + allocate the frame
//	_ = p.EntropyDecode(ctx)               // stage 1: serial Huffman, then the output
//	res, _ := p.FinishVirtual()            // the mode's virtual schedule
//	bp := jpegcodec.PlanBands(p.Frame(), ...)
//	... execute bands into p.Output() on any pool ...
//
// Decode itself is Prepare + EntropyDecode + FinishVirtual followed by
// jpegcodec.ParallelPhaseScalar over the whole frame.
type Prepared struct {
	st          *decodeState
	entropyDone bool
	finished    bool
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
// write into (nil until EntropyDecode has succeeded); it becomes
// Result.Image after FinishVirtual.
func (p *Prepared) Output() *jpegcodec.RGBImage { return p.st.out }

// Mode returns the resolved execution mode.
func (p *Prepared) Mode() Mode { return p.st.opts.Mode }

// EntropyDecode runs stage 1: sequential Huffman decoding of the whole
// image into the coefficient buffer, recording per-row bit counts and
// their virtual costs. ctx (may be nil) is polled every few MCU rows so
// a cancelled batch abandons a large image mid-stream. On success it
// allocates the RGB output, so an image holds its largest byte buffer
// only from the moment there is something to put in it; the back phase
// overwrites every pixel, and a VirtualOnly decode, which runs no back
// phase, gets the zeroed image it promises.
func (p *Prepared) EntropyDecode(ctx context.Context) error {
	if p.entropyDone {
		return nil
	}
	st := p.st
	// 32 MCU rows ≈ a few hundred microseconds of entropy work between
	// cancellation checks.
	const pollRows = 32
	for !st.ed.Done() {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if _, err := st.ed.DecodeRows(pollRows); err != nil {
			return err
		}
	}
	st.rowCost = make([]float64, st.f.MCURows)
	blocksPerRow := blocksPerMCURow(st.f)
	//hetlint:nopoll one polynomial evaluation per MCU row, microseconds for the whole image
	for i, bits := range st.ed.BitsPerRow {
		st.rowCost[i] = st.opts.Spec.HuffmanNs(bits, blocksPerRow)
	}
	st.out = jpegcodec.NewRGBImage(st.f.OutW, st.f.OutH)
	if st.opts.VirtualOnly {
		clear(st.out.Pix)
	}
	p.entropyDone = true
	return nil
}

// FinishVirtual builds the resolved mode's virtual timeline, statistics
// and result. It executes nothing: the caller owns the back phase (band
// tasks into Output, or Decode's one scalar pass) and the frame's
// release. The mode runners price the device work through
// kernels.CostPlan, so the result is the same whoever produces the
// pixels.
func (p *Prepared) FinishVirtual() (*Result, error) {
	if !p.entropyDone {
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
	if rep := st.ed.SalvageReport(); rep.Impaired() {
		st.res.Salvage = rep
	}
	return &st.res, nil
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
