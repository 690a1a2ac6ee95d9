package jpegcodec

import (
	"sync"
	"sync/atomic"

	"hetjpeg/internal/jfif"
)

// This file is the one entropy→band handoff (§4.5/§5.2 on the wall
// clock): the fused back phase cut into MCU-row bands, each ready once
// the sequential entropy stage (Decode.Step) has decoded its rows. The
// batch band scheduler pushes ready bands of many images onto its
// work-stealing deques; a single decode hands them to a crew.
//
// A band transforms its own MCU rows and color-converts only the pixel
// rows whose inputs lie inside it. For 4:2:0 the two pixel rows at each
// interior band boundary read chroma from both sides; whichever of the
// two bands finishes second converts them. Output is byte-identical to
// the sequential fused pipeline for any decomposition and any order.

// ConvertScratch is a reusable per-goroutine scratch for the chroma
// upsampling rows of the fused pipeline. A worker keeps one across
// bands of any number of frames; it grows to the widest frame seen and
// allocates nothing once warm. The zero value is ready to use.
type ConvertScratch struct {
	cbUp, crUp []byte
}

// ensure grows the scratch to frame f's chroma row width.
func (s *ConvertScratch) ensure(f *Frame) {
	if len(f.Planes) < 3 || f.Sub == jfif.Sub444 {
		return
	}
	cpw := f.Planes[1].PlaneW()
	if len(s.cbUp) < 2*cpw {
		s.cbUp = make([]byte, 2*cpw)
		s.crUp = make([]byte, 2*cpw)
	}
}

// BandPlan is a decomposition of the back phase of MCU rows [m0, m1)
// into contiguous MCU-row bands, each an independently executable task,
// and the entropy stage's progress through them. Each band of a plan
// runs once.
type BandPlan struct {
	f      *Frame
	edges  []bandEdge // edge i starts band i; the last edge ends the plan
	r0, r1 int        // pixel rows covered by the plan
	ready  int        // bands [0, ready) hold final coefficients (step)
}

// bandEdge is a band boundary: its MCU row and, in a 4:2:0 plan, how
// many of the two bands beside it have finished.
type bandEdge struct {
	m        int
	finished atomic.Int32
}

// PlanBands slices MCU rows [m0, m1) of f into bands of bandRows MCU
// rows (the last band may be short). bandRows < 1 is treated as 1.
func PlanBands(f *Frame, m0, m1, bandRows int) *BandPlan {
	bandRows = max(bandRows, 1)
	bp := &BandPlan{f: f}
	bp.r0, bp.r1 = f.PixelRows(m0, m1)
	for m := m0; m < m1; m += bandRows {
		bp.edges = append(bp.edges, bandEdge{m: m})
	}
	bp.edges = append(bp.edges, bandEdge{m: m1})
	return bp
}

// Bands returns the number of bands in the plan.
func (bp *BandPlan) Bands() int { return len(bp.edges) - 1 }

// BandMCURows returns the number of MCU rows band i covers (the unit the
// batch scheduler's online calibration normalizes measured times by).
func (bp *BandPlan) BandMCURows(i int) int { return bp.edges[i+1].m - bp.edges[i].m }

// step entropy-decodes through ed, a decoder of the plan's frame, until
// the next band is ready or rows rows of work are done, and returns the
// bands [from, to) that became ready: Decode.Step's work. A band is
// ready once every one of its MCU rows lies below ed.Row(): a baseline
// stream readies bands as its rows land, a progressive one readies them
// all after its last scan. The plan must cover the whole frame, or hold
// no bands at all (Entropy's), in which case no band ever becomes ready.
func (bp *BandPlan) step(ed *EntropyDecoder, rows int) (from, to int, err error) {
	from, edges := bp.ready, bp.edges
	if !bp.f.Img.Progressive && from+1 < len(edges) {
		rows = min(rows, edges[from+1].m-ed.Row())
	}
	if _, err = ed.DecodeRows(rows); err != nil {
		return from, from, err
	}
	for to = from; to+1 < len(edges) && edges[to+1].m <= ed.Row(); to++ {
	}
	bp.ready = to
	return from, to, nil
}

// ExecBand runs band i's share of the fused pipeline into out: IDCT of
// its MCU rows, then upsampling + color conversion of the pixel rows
// whose inputs lie entirely within rows reconstructed by this band (the
// per-row deferral of the fused pipeline, plus the 4:2:0 seam deferral
// at band boundaries), then the seams whose other band already
// finished. Bands of one plan may run concurrently: each writes disjoint
// plane and pixel regions.
func (bp *BandPlan) ExecBand(i int, out *RGBImage, s *ConvertScratch) {
	f := bp.f
	top, bottom := bp.edges[i].m, bp.edges[i+1].m
	lo, _ := f.PixelRows(top, bottom)
	seams := f.Sub == jfif.Sub420
	if seams && i > 0 {
		// The boundary row below the seam (owned here by the bound
		// shift) and the one above both read the previous band's chroma:
		// both become seam rows. Units are output rows, so the same rule
		// holds at every decode scale.
		lo = top*f.MCUOutH + 1
	}
	hi := bp.r1
	if i < bp.Bands()-1 {
		hi = f.RowBound(bottom)
	}
	parallelPhaseBands(f, top, bottom, lo, hi, out, s)
	if seams {
		bp.seam(i, out, s)
		bp.seam(i+1, out, s)
	}
}

// seam converts the two pixel rows at interior edge k if the band on
// its other side has finished too: the atomic count orders both bands'
// plane writes before the conversion that reads them.
func (bp *BandPlan) seam(k int, out *RGBImage, s *ConvertScratch) {
	if k == 0 || k == bp.Bands() || bp.edges[k].finished.Add(1) < 2 {
		return
	}
	y := bp.edges[k].m * bp.f.MCUOutH
	if lo, hi := max(y-1, bp.r0), min(y+1, bp.r1); lo < hi {
		colorConvertRange(bp.f, lo, hi, out, s)
	}
}

// crew runs the bands of a single-image plan as they are published, on
// workers-1 helper goroutines that claim them in order and, once it
// joins in end, the caller.
type crew struct {
	bp    *BandPlan
	out   *RGBImage
	bands chan int // published bands not yet claimed
	stop  atomic.Bool
	wg    sync.WaitGroup
}

// newCrew runs plan bp into out on up to workers goroutines and starts
// the helpers.
func newCrew(bp *BandPlan, out *RGBImage, workers int) *crew {
	c := &crew{bp: bp, out: out, bands: make(chan int, bp.Bands())}
	for range min(workers, bp.Bands()) - 1 {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.work()
		}()
	}
	return c
}

// publish makes bands [from, to) claimable.
func (c *crew) publish(from, to int) {
	for i := from; i < to; i++ {
		c.bands <- i
	}
}

// work runs claimed bands until the plan is closed and drained.
func (c *crew) work() {
	s := &ConvertScratch{}
	for i := range c.bands {
		if !c.stop.Load() {
			c.bp.ExecBand(i, c.out, s)
		}
	}
}

// end closes the plan to publication. With ok the caller joins the
// helpers until every band has run; without, no band starts any more.
// It returns once no band is running and every helper is gone.
func (c *crew) end(ok bool) {
	c.stop.Store(!ok)
	close(c.bands)
	c.work()
	c.wg.Wait()
}
