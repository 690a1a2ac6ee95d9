package jpegcodec

import "hetjpeg/internal/jfif"

// This file exposes the fused back phase (dequant+IDCT, upsample, color
// conversion) at MCU-row-band granularity for external schedulers: the
// batch band scheduler pulls bands from many in-flight images through one
// shared worker pool, so a large image's tail is spread across idle
// workers instead of pinning one. ParallelPhaseScalarWorkers is the
// single-image specialization (one band per worker).
//
// A band executes independently of every other band of the same plan:
// it transforms its own MCU rows and color-converts only the pixel rows
// whose inputs are fully inside the band. For 4:2:0 the two pixel rows
// at each interior band boundary read chroma from both sides of the
// seam; they are deferred to FinishSeams, which runs once after every
// band of the image completed. Output is byte-identical to the
// sequential fused pipeline for any band decomposition.

// ConvertScratch is a reusable per-goroutine scratch for the chroma
// upsampling rows of the fused pipeline. A worker keeps one across
// bands of any number of frames; it grows to the widest frame seen and
// allocates nothing once warm. The zero value is ready to use.
type ConvertScratch struct {
	cs convertScratch
}

// ensure grows the scratch to frame f's chroma row width.
func (s *ConvertScratch) ensure(f *Frame) {
	if len(f.Planes) < 3 || f.Sub == jfif.Sub444 {
		return
	}
	cpw := f.Planes[1].PlaneW()
	if len(s.cs.cbUp) < 2*cpw {
		s.cs.cbUp = make([]byte, 2*cpw)
		s.cs.crUp = make([]byte, 2*cpw)
	}
	if f.Sub == jfif.Sub420 && len(s.cs.blend) < cpw {
		s.cs.blend = make([]int, cpw)
	}
}

// BandPlan is a decomposition of the back phase of MCU rows [m0, m1)
// into contiguous MCU-row bands, each an independently executable task.
type BandPlan struct {
	f      *Frame
	starts []int // band boundaries: band i covers MCU rows [starts[i], starts[i+1])
	r0, r1 int   // pixel rows covered by the plan
}

// PlanBands slices MCU rows [m0, m1) of f into bands of bandRows MCU
// rows (the last band may be short). bandRows < 1 is treated as 1.
func PlanBands(f *Frame, m0, m1, bandRows int) *BandPlan {
	if bandRows < 1 {
		bandRows = 1
	}
	bp := &BandPlan{f: f}
	bp.r0, bp.r1 = f.PixelRows(m0, m1)
	for m := m0; m < m1; m += bandRows {
		bp.starts = append(bp.starts, m)
	}
	bp.starts = append(bp.starts, m1)
	return bp
}

// planBandsN slices MCU rows [m0, m1) into a head band [m0, head), none
// when head == m0, and n equal-share bands over [head, m1): the
// ParallelPhaseScalarWorkers decomposition, and the pipelined decode's
// follower band and tail. n must be in [1, m1-head].
func planBandsN(f *Frame, m0, head, m1, n int) *BandPlan {
	bp := &BandPlan{f: f, starts: make([]int, 0, n+2)}
	bp.r0, bp.r1 = f.PixelRows(m0, m1)
	if head > m0 {
		bp.starts = append(bp.starts, m0)
	}
	for i := 0; i <= n; i++ {
		bp.starts = append(bp.starts, head+(m1-head)*i/n)
	}
	return bp
}

// Bands returns the number of bands in the plan.
func (bp *BandPlan) Bands() int { return len(bp.starts) - 1 }

// BandMCURows returns the number of MCU rows band i covers (the unit the
// batch scheduler's online calibration normalizes measured times by).
func (bp *BandPlan) BandMCURows(i int) int { return bp.starts[i+1] - bp.starts[i] }

// ExecBand runs band i's share of the fused pipeline into out: IDCT of
// its MCU rows, then upsampling + color conversion of the pixel rows
// whose inputs lie entirely within rows reconstructed by this band (the
// per-row deferral of the fused pipeline, plus the 4:2:0 seam deferral
// at band boundaries). Bands of one plan may run concurrently: each
// writes disjoint plane and pixel regions.
func (bp *BandPlan) ExecBand(i int, out *RGBImage, s *ConvertScratch) {
	f := bp.f
	a, b := bp.starts[i], bp.starts[i+1]
	s.ensure(f)
	lo, _ := f.PixelRows(a, b)
	if f.Sub == jfif.Sub420 && i > 0 {
		// The boundary row below the seam (owned here by the bound
		// shift) and the one above both read the previous band's chroma:
		// both become seam rows. Units are output rows, so the same rule
		// holds at every decode scale.
		lo = a*f.mcuOutH() + 1
	}
	hi := bp.r1
	if i < bp.Bands()-1 {
		hi = bandBound(f, b)
	}
	parallelPhaseBands(f, a, b, lo, hi, out, &s.cs, nil)
}

// FinishSeams converts the deferred 4:2:0 seam rows (two pixel rows per
// interior band boundary, whose vertical chroma filter reads both
// sides). It must run after every band of the plan completed; for other
// subsamplings it is a no-op.
func (bp *BandPlan) FinishSeams(out *RGBImage, s *ConvertScratch) {
	f := bp.f
	if f.Sub != jfif.Sub420 {
		return
	}
	s.ensure(f)
	for i := 1; i < bp.Bands(); i++ {
		a := bp.starts[i]
		lo := a*f.mcuOutH() - 1
		hi := a*f.mcuOutH() + 1
		if lo < bp.r0 {
			lo = bp.r0
		}
		if hi > bp.r1 {
			hi = bp.r1
		}
		if lo < hi {
			colorConvertRange(f, lo, hi, out, &s.cs)
		}
	}
}
