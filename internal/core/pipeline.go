package core

import (
	"context"
	"errors"

	"hetjpeg/internal/jpegcodec"
)

// Prepared is a decode split open at the paper's pipeline boundary for
// the reproduction's probes: the jpegcodec handle, which owns the frame,
// the entropy step and the output, plus the options its schedule is
// priced under. Wall-clock callers drive a jpegcodec.Decode themselves
// and price the finished frame with Price only where they report
// virtual time:
//
//	p, _ := core.Prepare(data, opts)  // jpegcodec.Open: parse + allocate the frame
//	_ = p.EntropyDecode(ctx)          // stage 1: Step over a plan of one band
//	res, _ := p.FinishVirtual()       // Price, plus the (unfilled) output
//
// Decode is Prepare + EntropyDecode + Price, then
// jpegcodec.ParallelPhaseScalar over the frame.
type Prepared struct {
	*jpegcodec.Decode
	opts Options
}

// Prepare opens the stream (jpegcodec.Open at the options' scale and
// salvage mode). No entropy decoding happens yet, and the RGB output is
// not allocated until the first band is ready.
func Prepare(data []byte, opts Options) (*Prepared, error) {
	if opts.Spec == nil {
		return nil, errors.New("core: Options.Spec is required")
	}
	d, err := jpegcodec.Open(data, jpegcodec.Options{Scale: opts.Scale, Salvage: opts.Salvage})
	if err != nil {
		return nil, err
	}
	return &Prepared{Decode: d, opts: opts}, nil
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

// FinishVirtual prices the ended decode (Price) and returns it with the
// handle's output. It executes nothing: the caller owns the back phase
// and the frame's release.
func (p *Prepared) FinishVirtual() (*Result, error) {
	res, err := Price(p.Frame(), p.SalvageReport(), p.opts)
	if err != nil {
		return nil, err
	}
	res.Image = p.Output()
	return res, nil
}
