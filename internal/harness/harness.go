// Package harness regenerates every table and figure of the paper's
// evaluation (Section 6) from the reproduction: breakdowns, speedup
// sweeps, Amdahl-bound comparisons and load-balance measurements. Each
// experiment returns structured rows and can render itself as text:
// `repro figures` writes the text reports, and this package's tests pin
// the shape of each.
package harness

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"hetjpeg/internal/core"
	"hetjpeg/internal/imagegen"
	"hetjpeg/internal/jfif"
	"hetjpeg/internal/mathx"
	"hetjpeg/internal/perfmodel"
	"hetjpeg/internal/platform"
	"hetjpeg/internal/sim"
)

// decodeVirtual runs a virtual-only decode and returns the result.
func decodeVirtual(data []byte, mode core.Mode, spec *platform.Spec, model *perfmodel.Model) (*core.Result, error) {
	return core.Decode(data, core.Options{
		Mode:        mode,
		Spec:        spec,
		Model:       model,
		VirtualOnly: true,
	})
}

// Mean and CV of a sample.
func meanCV(xs []float64) (mean, cv float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 || mean == 0 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(len(xs)-1))
	return mean, 100 * sd / mean
}

// ---------------------------------------------------------------------
// Table 1

// Table1Text renders the hardware specification table.
func Table1Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %-16s %-16s %-16s\n", "Machine name", "GT 430", "GTX 560", "GTX 680")
	specs := platform.All()
	row := func(name string, f func(*platform.Spec) string) {
		fmt.Fprintf(&b, "%-22s %-16s %-16s %-16s\n", name, f(specs[0]), f(specs[1]), f(specs[2]))
	}
	row("CPU model", func(s *platform.Spec) string { return s.CPUModel })
	row("CPU frequency", func(s *platform.Spec) string { return fmt.Sprintf("%.1f GHz", s.CPUFreqGHz) })
	row("No. of CPU cores", func(s *platform.Spec) string { return fmt.Sprint(s.CPUCores) })
	row("GPU model", func(s *platform.Spec) string { return s.GPUModel })
	row("GPU core frequency", func(s *platform.Spec) string { return fmt.Sprintf("%d MHz", s.GPUCoreMHz) })
	row("No. of GPU cores", func(s *platform.Spec) string { return fmt.Sprint(s.GPUCores) })
	row("GPU memory size", func(s *platform.Spec) string { return fmt.Sprintf("%d MB", s.GPUMemMB) })
	row("Compute Capability", func(s *platform.Spec) string { return s.ComputeCap })
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 6: parallel phase scales linearly with pixels.

// Fig6Point is one measurement of the parallel phase.
type Fig6Point struct {
	Pixels int
	Sub    jfif.Subsampling
	SIMDNs float64
	GPUNs  float64
}

// Fig6Result carries the sweep and linearity fits.
type Fig6Result struct {
	Machine  string
	Points   []Fig6Point
	R2SIMD   float64
	R2GPU    float64
	SlopeTag string
}

// Figure6 measures the SIMD and GPU parallel-phase times over a size
// sweep for both subsamplings on one machine. Linearity is fitted per
// subsampling (the paper plots separate 4:2:2 and 4:4:4 series); the
// reported R² is the weaker of the two.
func Figure6(spec *platform.Spec, sizes [][2]int) (*Fig6Result, error) {
	res := &Fig6Result{Machine: spec.Name, R2SIMD: 1, R2GPU: 1}
	for _, sub := range []jfif.Subsampling{jfif.Sub422, jfif.Sub444} {
		items, err := imagegen.SizeSweep(sub, 0.6, sizes, 21)
		if err != nil {
			return nil, err
		}
		var xs, ysS, ysG []float64
		for _, it := range items {
			p, err := perfmodel.SummarizeItem(it)
			if err != nil {
				return nil, err
			}
			m := perfmodel.MeasureParallel(spec, p)
			res.Points = append(res.Points, Fig6Point{
				Pixels: it.W * it.H,
				Sub:    sub,
				SIMDNs: m.PCPU,
				GPUNs:  m.PGPU,
			})
			xs = append(xs, float64(it.W*it.H))
			ysS = append(ysS, m.PCPU)
			ysG = append(ysG, m.PGPU)
		}
		if r := linearR2(xs, ysS); r < res.R2SIMD {
			res.R2SIMD = r
		}
		if r := linearR2(xs, ysG); r < res.R2GPU {
			res.R2GPU = r
		}
	}
	return res, nil
}

func linearR2(xs, ys []float64) float64 {
	p, err := mathx.FitPoly1(xs, ys, 1)
	if err != nil {
		return 0
	}
	pred := make([]float64, len(xs))
	for i, x := range xs {
		pred[i] = p.Eval(x)
	}
	return mathx.RSquared(pred, ys)
}

// Text renders the figure as a table.
func (r *Fig6Result) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — parallel phase vs pixels on %s (R² SIMD=%.4f, GPU=%.4f)\n", r.Machine, r.R2SIMD, r.R2GPU)
	fmt.Fprintf(&b, "%10s %8s %12s %12s\n", "pixels", "sub", "SIMD ms", "GPU ms")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%10d %8s %12.2f %12.2f\n", p.Pixels, p.Sub, p.SIMDNs/1e6, p.GPUNs/1e6)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 7: Huffman rate vs entropy density.

// Fig7Point is one image's Huffman decoding rate.
type Fig7Point struct {
	Density   float64
	NsPerPix  float64
	Sub       jfif.Subsampling
	PixelSize int
}

// Fig7Result carries the scatter and its linear fit quality.
type Fig7Result struct {
	Machine string
	Points  []Fig7Point
	R2      float64
	Slope   float64 // ns/pixel per (byte/pixel)
}

// Figure7 sweeps texture detail to produce the density-vs-rate scatter.
func Figure7(spec *platform.Spec, sub jfif.Subsampling) (*Fig7Result, error) {
	res := &Fig7Result{Machine: spec.Name}
	var xs, ys []float64
	for _, detail := range []float64{0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9, 1.0} {
		items, err := imagegen.SizeSweep(sub, detail, [][2]int{{320, 240}, {512, 512}, {800, 600}}, 33)
		if err != nil {
			return nil, err
		}
		for _, it := range items {
			p, err := perfmodel.SummarizeItem(it)
			if err != nil {
				return nil, err
			}
			m := perfmodel.MeasureParallel(spec, p)
			nsPerPix := m.THuff / float64(it.W*it.H)
			res.Points = append(res.Points, Fig7Point{
				Density:   it.Density,
				NsPerPix:  nsPerPix,
				Sub:       sub,
				PixelSize: it.W * it.H,
			})
			xs = append(xs, it.Density)
			ys = append(ys, nsPerPix)
		}
	}
	res.R2 = linearR2(xs, ys)
	if p, err := mathx.FitPoly1(xs, ys, 1); err == nil {
		res.Slope = p.Coef[1]
	}
	return res, nil
}

// Text renders the scatter.
func (r *Fig7Result) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 — Huffman rate vs entropy density on %s (R²=%.4f, slope=%.2f ns/px per B/px)\n",
		r.Machine, r.R2, r.Slope)
	fmt.Fprintf(&b, "%12s %14s %10s\n", "density B/px", "huffman ns/px", "pixels")
	pts := append([]Fig7Point(nil), r.Points...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].Density < pts[j].Density })
	for _, p := range pts {
		fmt.Fprintf(&b, "%12.4f %14.3f %10d\n", p.Density, p.NsPerPix, p.PixelSize)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 9: execution-time breakdown, 2048x2048, 4:2:2.

// Fig9Column is one stacked bar.
type Fig9Column struct {
	Machine    string
	Mode       core.Mode
	Breakdown  map[sim.Kind]float64
	TotalNs    float64
	VsSIMDNorm float64 // total normalized to the machine's SIMD total
}

// Figure9 decodes one 2048x2048 4:2:2 image in CPU, SIMD and GPU modes on
// every machine.
func Figure9(size int) ([]Fig9Column, error) {
	if size == 0 {
		size = 2048
	}
	items, err := imagegen.SizeSweep(jfif.Sub422, 0.6, [][2]int{{size, size}}, 9)
	if err != nil {
		return nil, err
	}
	data := items[0].Data
	var cols []Fig9Column
	for _, spec := range platform.All() {
		var simdTotal float64
		for _, mode := range []core.Mode{core.ModeSequential, core.ModeSIMD, core.ModeGPU} {
			res, err := decodeVirtual(data, mode, spec, nil)
			if err != nil {
				return nil, err
			}
			if mode == core.ModeSIMD {
				simdTotal = res.TotalNs
			}
			cols = append(cols, Fig9Column{
				Machine:   spec.Name,
				Mode:      mode,
				Breakdown: res.Timeline.TotalByKind(),
				TotalNs:   res.TotalNs,
			})
		}
		for i := len(cols) - 3; i < len(cols); i++ {
			cols[i].VsSIMDNorm = cols[i].TotalNs / simdTotal
		}
	}
	return cols, nil
}

// Fig9Text renders the breakdown columns.
func Fig9Text(cols []Fig9Column) string {
	var b strings.Builder
	b.WriteString("Figure 9 — decoding time breakdown, 2048x2048 4:2:2, normalized to SIMD\n")
	for _, c := range cols {
		fmt.Fprintf(&b, "%-8s %-10s total %8.2f ms (%.2fx SIMD)\n", c.Machine, c.Mode, c.TotalNs/1e6, c.VsSIMDNorm)
		kinds := make([]sim.Kind, 0, len(c.Breakdown))
		for k := range c.Breakdown {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
		for _, k := range kinds {
			fmt.Fprintf(&b, "    %-16s %10.2f ms\n", k, c.Breakdown[k]/1e6)
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Tables 2 & 3 and Figure 10: speedups over SIMD.

// SpeedupCell is one (machine, mode) aggregate.
type SpeedupCell struct {
	Machine string
	Mode    core.Mode
	Mean    float64
	CV      float64 // percent
}

// SpeedupTable computes mean speedup over SIMD per machine and mode for a
// corpus of one subsampling (Tables 2 and 3).
func SpeedupTable(sub jfif.Subsampling, corpus []imagegen.Item, models map[string]*perfmodel.Model) ([]SpeedupCell, error) {
	modes := []core.Mode{core.ModeGPU, core.ModePipelinedGPU, core.ModeSPS, core.ModePPS}
	var cells []SpeedupCell
	for _, spec := range platform.All() {
		model := models[spec.Name]
		samples := make(map[core.Mode][]float64)
		for _, it := range corpus {
			simdRes, err := decodeVirtual(it.Data, core.ModeSIMD, spec, model)
			if err != nil {
				return nil, err
			}
			for _, mode := range modes {
				res, err := decodeVirtual(it.Data, mode, spec, model)
				if err != nil {
					return nil, fmt.Errorf("%s %v %s: %w", spec.Name, mode, it.Name, err)
				}
				samples[mode] = append(samples[mode], simdRes.TotalNs/res.TotalNs)
			}
		}
		for _, mode := range modes {
			mean, cv := meanCV(samples[mode])
			cells = append(cells, SpeedupCell{Machine: spec.Name, Mode: mode, Mean: mean, CV: cv})
		}
	}
	return cells, nil
}

// SpeedupTableText renders a Table 2/3 style grid.
func SpeedupTableText(title string, cells []SpeedupCell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-10s %-14s %-14s %-14s\n", title, "Mode", "GT 430", "GTX 560", "GTX 680")
	byMode := map[core.Mode]map[string]SpeedupCell{}
	for _, c := range cells {
		if byMode[c.Mode] == nil {
			byMode[c.Mode] = map[string]SpeedupCell{}
		}
		byMode[c.Mode][c.Machine] = c
	}
	for _, mode := range []core.Mode{core.ModeGPU, core.ModePipelinedGPU, core.ModeSPS, core.ModePPS} {
		fmt.Fprintf(&b, "%-10s", mode)
		for _, m := range []string{"GT 430", "GTX 560", "GTX 680"} {
			c := byMode[mode][m]
			fmt.Fprintf(&b, " %5.2f±%5.2f%% ", c.Mean, c.CV)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig10Point is one (pixels, mode) speedup sample.
type Fig10Point struct {
	Machine string
	Mode    core.Mode
	Pixels  int
	Speedup float64
}

// Figure10 sweeps image size and reports per-mode speedup over SIMD.
func Figure10(sub jfif.Subsampling, sizes [][2]int, models map[string]*perfmodel.Model) ([]Fig10Point, error) {
	items, err := imagegen.SizeSweep(sub, 0.6, sizes, 55)
	if err != nil {
		return nil, err
	}
	modes := []core.Mode{core.ModeGPU, core.ModePipelinedGPU, core.ModeSPS, core.ModePPS}
	var pts []Fig10Point
	for _, spec := range platform.All() {
		model := models[spec.Name]
		for _, it := range items {
			simdRes, err := decodeVirtual(it.Data, core.ModeSIMD, spec, model)
			if err != nil {
				return nil, err
			}
			for _, mode := range modes {
				res, err := decodeVirtual(it.Data, mode, spec, model)
				if err != nil {
					return nil, err
				}
				pts = append(pts, Fig10Point{
					Machine: spec.Name,
					Mode:    mode,
					Pixels:  it.W * it.H,
					Speedup: simdRes.TotalNs / res.TotalNs,
				})
			}
		}
	}
	return pts, nil
}

// Fig10Text renders the sweep.
func Fig10Text(pts []Fig10Point) string {
	var b strings.Builder
	b.WriteString("Figure 10 — speedup over SIMD vs image size\n")
	fmt.Fprintf(&b, "%-8s %-10s %10s %8s\n", "machine", "mode", "pixels", "speedup")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-8s %-10s %10d %8.2f\n", p.Machine, p.Mode, p.Pixels, p.Speedup)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 11: percent of the theoretically attainable speedup.

// Fig11Point is one image's share of the Amdahl bound.
type Fig11Point struct {
	Pixels     int
	PPSSpeedup float64
	MaxSpeedup float64 // T_total(SIMD) / T_huff (Equation 19)
	Percent    float64
}

// Figure11 measures PPS against the attainable bound on one machine.
func Figure11(spec *platform.Spec, sub jfif.Subsampling, sizes [][2]int, model *perfmodel.Model) ([]Fig11Point, error) {
	items, err := imagegen.SizeSweep(sub, 0.6, sizes, 71)
	if err != nil {
		return nil, err
	}
	var pts []Fig11Point
	for _, it := range items {
		simdRes, err := decodeVirtual(it.Data, core.ModeSIMD, spec, model)
		if err != nil {
			return nil, err
		}
		ppsRes, err := decodeVirtual(it.Data, core.ModePPS, spec, model)
		if err != nil {
			return nil, err
		}
		speedup := simdRes.TotalNs / ppsRes.TotalNs
		maxSp := simdRes.TotalNs / simdRes.HuffNs
		pts = append(pts, Fig11Point{
			Pixels:     it.W * it.H,
			PPSSpeedup: speedup,
			MaxSpeedup: maxSp,
			Percent:    100 * speedup / maxSp,
		})
	}
	return pts, nil
}

// Fig11Text renders the bound comparison.
func Fig11Text(machine string, pts []Fig11Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11 — PPS vs attainable speedup on %s\n", machine)
	fmt.Fprintf(&b, "%10s %10s %10s %10s\n", "pixels", "PPS", "max", "percent")
	var mean float64
	for _, p := range pts {
		fmt.Fprintf(&b, "%10d %10.2f %10.2f %9.1f%%\n", p.Pixels, p.PPSSpeedup, p.MaxSpeedup, p.Percent)
		mean += p.Percent
	}
	if len(pts) > 0 {
		fmt.Fprintf(&b, "mean achievement: %.1f%%\n", mean/float64(len(pts)))
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 12: CPU/GPU balance during the parallel part.

// Fig12Point is one image's CPU and GPU busy time under a partitioned
// mode (entropy decoding excluded, as in the paper).
type Fig12Point struct {
	Machine string
	Mode    core.Mode
	Pixels  int
	CPUNs   float64
	GPUNs   float64
}

// Figure12 measures parallel-part balance for SPS and PPS.
func Figure12(sub jfif.Subsampling, sizes [][2]int, models map[string]*perfmodel.Model) ([]Fig12Point, error) {
	items, err := imagegen.SizeSweep(sub, 0.6, sizes, 83)
	if err != nil {
		return nil, err
	}
	var pts []Fig12Point
	for _, spec := range platform.All() {
		model := models[spec.Name]
		for _, mode := range []core.Mode{core.ModeSPS, core.ModePPS} {
			for _, it := range items {
				res, err := decodeVirtual(it.Data, mode, spec, model)
				if err != nil {
					return nil, err
				}
				// The paper's accounting: for SPS, CPU time omits all
				// entropy decoding (it precedes the parallel part); for
				// PPS only the first chunk's entropy decode is omitted —
				// the rest overlaps the GPU and counts as CPU-side work
				// of the parallel phase.
				cpu, gpu := 0.0, 0.0
				firstDispatchSeen := false
				var huffAfterFirstChunk float64
				for _, t := range res.Timeline.Tasks() {
					switch {
					case t.Resource == sim.ResGPU:
						gpu += t.Cost
					case t.Kind == sim.KindHuffman:
						if firstDispatchSeen {
							huffAfterFirstChunk += t.Cost
						}
					default:
						if t.Kind == sim.KindDispatch {
							firstDispatchSeen = true
						}
						cpu += t.Cost
					}
				}
				if mode == core.ModePPS {
					cpu += huffAfterFirstChunk
				}
				pts = append(pts, Fig12Point{
					Machine: spec.Name,
					Mode:    mode,
					Pixels:  it.W * it.H,
					CPUNs:   cpu,
					GPUNs:   gpu,
				})
			}
		}
	}
	return pts, nil
}

// Fig12Text renders the balance table.
func Fig12Text(pts []Fig12Point) string {
	var b strings.Builder
	b.WriteString("Figure 12 — CPU vs GPU time during parallel execution\n")
	fmt.Fprintf(&b, "%-8s %-6s %10s %10s %10s %9s\n", "machine", "mode", "pixels", "CPU ms", "GPU ms", "imbalance")
	for _, p := range pts {
		imb := 0.0
		if m := math.Max(p.CPUNs, p.GPUNs); m > 0 {
			imb = 100 * math.Abs(p.CPUNs-p.GPUNs) / m
		}
		fmt.Fprintf(&b, "%-8s %-6s %10d %10.2f %10.2f %8.1f%%\n",
			p.Machine, p.Mode, p.Pixels, p.CPUNs/1e6, p.GPUNs/1e6, imb)
	}
	return b.String()
}
