package jpegcodec

import (
	"context"
	"fmt"

	"hetjpeg/internal/jfif"
)

// This file is the one way into a decode. Open parses the stream and
// allocates the frame; the Decode it returns owns the frame, the
// sequential entropy stage and the RGB output. Step is the one entropy
// step: it runs the entropy stage through a band plan until the next
// band is ready, for whoever runs the bands (the batch band scheduler,
// Run, and core's reproduction adapters). Run is the paper's pipeline
// inside one image (§4.5/§5.2) on the wall clock: the caller steps the
// entropy stage and a crew runs each band whose rows are decoded.

// Options selects how Open prepares a decode. The zero value is a
// strict decode at full size.
type Options struct {
	// Scale is the decode scale; an invalid one fails Open with
	// ErrUnsupportedScale before the stream is parsed.
	Scale Scale
	// Salvage makes the entropy stage absorb entropy errors by
	// restart-marker resynchronization instead of failing; the
	// SalvageReport describes what was lost. Errors that leave nothing
	// decodable (no frame header, missing tables, unsupported features)
	// still fail Open. A structurally damaged container (truncated
	// mid-scan, corrupt segment length after the first decodable scan)
	// yields a decode over the salvageable prefix with the parse error
	// pre-recorded in its report. On a clean stream the decode takes
	// exactly the strict path.
	Salvage bool
}

// Decode is one image's decode, from the parsed stream to its pixels.
type Decode struct {
	f      *Frame
	ed     *EntropyDecoder // &entropy until the entropy stage ended, then nil
	out    *RGBImage       // nil until the first band is ready
	report *SalvageReport  // nil for a strict decode

	entropy EntropyDecoder // ed's storage, allocated with the handle
}

// Open parses the stream and allocates the frame's whole-image buffers.
// No entropy decoding happens yet, and the RGB output is not allocated
// until the first band is ready.
func Open(data []byte, opts Options) (*Decode, error) {
	if err := opts.Scale.Validate(); err != nil {
		return nil, err
	}
	parse := jfif.Parse
	if opts.Salvage {
		parse = jfif.ParseSalvage
	}
	im, perr := parse(data)
	if im == nil {
		return nil, perr
	}
	for _, c := range im.Components {
		if im.Quant[c.QuantSel] == nil {
			return nil, fmt.Errorf("jpegcodec: missing quant table %d", c.QuantSel)
		}
	}
	f, err := newFrame(im, opts.Scale)
	if err != nil {
		return nil, err
	}
	d := &Decode{f: f}
	d.ed = &d.entropy
	d.ed.init(f)
	if opts.Salvage {
		d.report = newSalvageReport(f.MCUsPerRow * f.MCURows)
		if perr != nil {
			d.report.record(-1, perr)
		}
		d.ed.enableSalvage(d.report)
	}
	return d, nil
}

// Frame returns the decode's frame: its geometry, and its coefficient
// and sample buffers until they are released.
func (d *Decode) Frame() *Frame { return d.f }

// Output returns the RGB buffer the bands write into, nil until Step
// readied the first band.
func (d *Decode) Output() *RGBImage { return d.out }

// Done reports whether the entropy stage has decoded the whole image.
func (d *Decode) Done() bool { return d.ed == nil }

// SalvageReport returns what a salvage decode absorbed (complete once
// Done; Impaired reports whether it lost anything), nil for a strict
// decode.
func (d *Decode) SalvageReport() *SalvageReport { return d.report }

// pollRows bounds the entropy work of one Step, and so the time between
// two polls of its context: 32 MCU rows are a few hundred microseconds.
const pollRows = 32

// Step runs the entropy stage until the next band of bp (a plan of the
// whole frame) is ready or pollRows rows of work are done, and returns
// the bands [from, to) that became ready. It polls ctx (may be nil)
// first, so a cancelled request abandons a large image mid-stream. The
// RGB output is allocated with the first ready band: a decode holds its
// largest buffer only once there is something to put in it. After the
// last row Step drops the entropy decoder, which reads the input, and
// keeps its BitsPerRow on the frame.
func (d *Decode) Step(ctx context.Context, bp *BandPlan) (from, to int, err error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, 0, err
		}
	}
	if from, to, err = bp.step(d.ed, pollRows); err != nil {
		return from, to, err
	}
	if to > 0 && d.out == nil {
		d.out = NewRGBImage(d.f.OutW, d.f.OutH)
	}
	if d.ed.Done() {
		d.f.BitsPerRow, d.ed, d.entropy = d.ed.BitsPerRow, nil, EntropyDecoder{}
	}
	return from, to, nil
}

// Run decodes the whole image on up to workers goroutines and returns
// its pixels, byte-identical at every worker count. One worker runs the
// fused sequential pass as one band. With more, each MCU row is a band
// that goes to a crew of workers-1 goroutines once Step has decoded it,
// and the caller joins the crew when entropy ends; a progressive
// stream's bands all start after its last scan. On an error no band
// starts any more, and the output goes back once none runs. The frame
// goes back to the pools on every path; its geometry stays readable.
// An impaired salvage decode returns BOTH its pixels and an error
// wrapping ErrPartialData.
func (d *Decode) Run(workers int) (*RGBImage, error) {
	f := d.f
	bandRows := 1
	if workers <= 1 {
		bandRows = f.MCURows
	}
	c := newCrew(PlanBands(f, 0, f.MCURows, bandRows), nil, workers)
	for !d.Done() {
		from, to, err := d.Step(nil, c.bp)
		if err != nil {
			c.end(false)
			d.Release()
			return nil, err
		}
		if c.out == nil {
			c.out = d.out // before the first band is published
		}
		c.publish(from, to)
	}
	c.end(true)
	f.Release()
	return d.out, d.report.Err()
}

// Release returns the frame's buffers and the RGB output to the pools:
// the abandon path of a decode that failed or was cancelled. Do not
// call it once the output was handed out.
func (d *Decode) Release() {
	d.f.Release()
	if d.out != nil {
		d.out.Release()
	}
}

// DecodeScalar is the sequential reference decoder (the libjpeg analog),
// Open and Run(1): the oracle every other path's pixels must match.
func DecodeScalar(data []byte) (*RGBImage, error) {
	d, err := Open(data, Options{})
	if err != nil {
		return nil, err
	}
	return d.Run(1)
}

// PrepareDecode is Open at full size, returning the frame and its
// entropy decoder positioned at row 0: the entropy-only entry of the
// benchmark's layer probes and of profiling.
func PrepareDecode(data []byte) (*Frame, *EntropyDecoder, error) {
	return PrepareDecodeScaled(data, Scale1)
}

// PrepareDecodeScaled is PrepareDecode at a decode scale.
func PrepareDecodeScaled(data []byte, scale Scale) (*Frame, *EntropyDecoder, error) {
	d, err := Open(data, Options{Scale: scale})
	if err != nil {
		return nil, nil, err
	}
	return d.f, d.ed, nil
}
