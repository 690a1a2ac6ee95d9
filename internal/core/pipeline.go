package core

import (
	"context"
	"errors"

	"hetjpeg/internal/jpegcodec"
)

// Prepared is a decode split open at the paper's pipeline boundary for
// the benchmark's probes: the jpegcodec handle, which owns the frame and
// the entropy step, plus the options its schedule is priced under.
// Wall-clock callers drive a jpegcodec.Decode themselves and price the
// finished frame with Price only where they report virtual time:
//
//	p, _ := core.Prepare(data, opts)  // jpegcodec.Open: parse + allocate the frame
//	_ = p.EntropyDecode(ctx)          // stage 1: the handle's Entropy
//	res, _ := p.FinishVirtual()       // Price
//
// Decode is Prepare, then the handle's Run(1) (Entropy alone under
// VirtualOnly), then Price.
type Prepared struct {
	*jpegcodec.Decode
	opts Options
}

// Prepare opens the stream (jpegcodec.Open at the options' scale and
// salvage mode). No entropy decoding happens yet.
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

// EntropyDecode runs stage 1 to its end: the handle's Entropy, which
// takes no RGB output and returns the frame's slabs to the pools.
func (p *Prepared) EntropyDecode(ctx context.Context) error {
	return p.Entropy(ctx)
}

// FinishVirtual prices the ended decode (Price). It executes nothing.
func (p *Prepared) FinishVirtual() (*Result, error) {
	return Price(p.Frame(), p.SalvageReport(), p.opts)
}
