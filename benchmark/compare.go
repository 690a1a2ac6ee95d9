package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of a comparison of two result sets on one workload and one
// end-to-end metric.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// side is one result set's values of one metric, one per run.
type side struct {
	values      []float64
	med, q1, q3 float64
}

func newSide(vs []float64) side {
	s := side{values: vs, med: median(vs)}
	s.q1, s.q3 = quartiles(vs)
	return s
}

// spread is the distance between the quartiles as a share of the median.
func (s side) spread() float64 {
	if s.med == 0 {
		return 0
	}
	return (s.q3 - s.q1) / math.Abs(s.med)
}

// judge compares change (b) with base (a) on a metric whose lower or
// higher values are better, against the bound the benchmark fixed:
//
//   - worse: b's median is worse than a's by more than the bound;
//   - unresolved: the run-to-run spread of either side is wider than the
//     bound, so a regression of that size could hide in it, unless every
//     run of b reads better than every run of a;
//   - better: b wins at least nine tenths of all pairs of runs, ties
//     counting for neither, and the medians differ by more than the
//     distance between a's own quartiles;
//   - same: otherwise.
func judge(a, b side, better string, bound float64) string {
	sign := 1.0 // positive worsening means b is worse
	if better == "higher" {
		sign = -1
	}
	wins, losses := 0, 0
	for _, x := range a.values {
		for _, y := range b.values {
			switch d := sign * (y - x); {
			case d < 0:
				wins++
			case d > 0:
				losses++
			}
		}
	}
	pairs := len(a.values) * len(b.values)
	allBetter := wins == pairs
	worsening := 0.0
	if a.med != 0 {
		worsening = sign * (b.med - a.med) / math.Abs(a.med)
	}
	switch {
	case math.Max(a.spread(), b.spread()) > bound && !allBetter:
		if losses == pairs && worsening > bound {
			return verdictWorse
		}
		return verdictUnresolved
	case worsening > bound:
		return verdictWorse
	case float64(wins) >= 0.9*float64(pairs) && math.Abs(b.med-a.med) > a.q3-a.q1:
		return verdictBetter
	}
	return verdictSame
}

// judgeFailShare is the absolute rule for fail_share: it may never rise.
func judgeFailShare(a, b side) string {
	switch {
	case b.med > a.med:
		return verdictWorse
	case b.med < a.med:
		return verdictBetter
	}
	return verdictSame
}

func valuesOf(runs []*runRecord, workload, metric string) []float64 {
	var vs []float64
	for _, r := range runs {
		for _, wl := range r.Workloads {
			if v, ok := wl.EndToEnd[metric]; ok && wl.Name == workload {
				vs = append(vs, v)
			}
		}
	}
	return vs
}

// compare prints, per workload and end-to-end metric, each side's
// median and quartiles, the ratio of the medians with its base, and the
// verdict. It returns how many pairings were worse or unresolved.
func compare(w io.Writer, pathA, pathB string) (int, error) {
	a, err := readRuns(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "A = %s (%d runs, commit %s)\nB = %s (%d runs, commit %s)\n", pathA, len(a), a[0].Env.Commit, pathB, len(b), b[0].Env.Commit)
	fmt.Fprintf(w, "each side: median [first quartile, third quartile]; ratio = B median / A median, base A\n")
	bad := 0
	for _, wl := range workloads {
		printed := false
		for _, m := range append(append([]metricDef{}, endToEnd...), metricDef{Name: failShare, Unit: "ratio", Better: "lower"}) {
			va, vb := valuesOf(a, wl.Name, m.Name), valuesOf(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			if !printed {
				fmt.Fprintf(w, "\n%s\n", wl.Name)
				printed = true
			}
			sa, sb := newSide(va), newSide(vb)
			verdict, bound := "", "absolute"
			if m.Name == failShare {
				verdict = judgeFailShare(sa, sb)
			} else {
				verdict = judge(sa, sb, m.Better, m.Bound)
				bound = fmt.Sprintf("%.2f", m.Bound)
			}
			ratio := "-"
			if sa.med != 0 {
				ratio = fmt.Sprintf("%.4f", sb.med/sa.med)
			}
			fmt.Fprintf(w, "  %-18s %-6s A %11.4f [%11.4f, %11.4f]  B %11.4f [%11.4f, %11.4f]  ratio %-7s bound %-8s %s\n",
				m.Name, m.Unit, sa.med, sa.q1, sa.q3, sb.med, sb.q1, sb.q3, ratio, bound, verdict)
			if verdict == verdictWorse || verdict == verdictUnresolved {
				bad++
			}
		}
	}
	// Simulated time has no noise: on one seed any difference is a change.
	for _, wl := range workloads {
		for _, name := range []string{"core.virtual_ms_pps", "core.virtual_speedup_pps_vs_simd"} {
			seen := map[int64]map[float64]bool{}
			for _, r := range append(append([]*runRecord{}, a...), b...) {
				for _, res := range r.Workloads {
					if v, ok := res.PerLayer[name]; ok && res.Name == wl.Name {
						if seen[r.Seed] == nil {
							seen[r.Seed] = map[float64]bool{}
						}
						seen[r.Seed][v] = true
					}
				}
			}
			for seed, vs := range seen {
				if len(vs) > 1 {
					fmt.Fprintf(w, "\n%s: %s does not repeat exactly on seed %d: %v\n", wl.Name, name, seed, vs)
					bad++
				}
			}
		}
	}
	return bad, nil
}
