// Package lint is hetjpeg's project-specific static-analysis suite: the
// analyzers behind `make lint` that guard the invariants the compiler
// cannot see and the benchmarks only catch after a bisect.
//
//   - poolcheck: every pool.Slab.Get is paired with a Put on all return
//     paths of the same function or explicitly handed off with a
//     `//hetlint:transfer` annotation; decode Results obtained in cmd/
//     and examples/ mains are Released on every path; no slab is used
//     after it was Put.
//   - errwrapcheck: errors crossing package boundaries wrap the typed
//     sentinels (ErrUnsupported, ErrUnsupportedScale) with %w — never a
//     re-stringifying %v/%s or err.Error() — so errors.Is keeps working
//     through the batch and imaged layers.
//   - ctxloopcheck: a function that accepts a context.Context and loops
//     over data-sized work (MCU rows, bands, scans, images) must poll
//     ctx inside the loop or pass it to a callee, the cancellation
//     contract Prepared.EntropyDecode established.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Diagnostic) but is built on the standard library only — the build
// environment is offline, so x/tools cannot be vendored. Swapping the
// analyzers onto the real analysis.Analyzer API later is mechanical: the
// Run functions only consume Fset/Files/Pkg/Info and call Reportf.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check, shaped like analysis.Analyzer.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one finding, positioned in the analyzed package.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one type-checked package through one analyzer, shaped
// like analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
	// annotations maps "filename:line" to the set of //hetlint:<tag>
	// annotation tags written on that line.
	annotations map[string]map[string]bool
}

// NewPass builds a Pass over a type-checked package. report receives
// every diagnostic the analyzer emits.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, report func(Diagnostic)) *Pass {
	p := &Pass{
		Analyzer:    a,
		Fset:        fset,
		Files:       files,
		Pkg:         pkg,
		Info:        info,
		report:      report,
		annotations: make(map[string]map[string]bool),
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "hetlint:") {
					continue
				}
				tag := strings.Fields(strings.TrimPrefix(text, "hetlint:"))
				if len(tag) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				if p.annotations[key] == nil {
					p.annotations[key] = make(map[string]bool)
				}
				p.annotations[key][tag[0]] = true
			}
		}
	}
	return p
}

// Reportf emits a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Annotated reports whether a `//hetlint:<tag>` annotation is written on
// the node's line or the line directly above it — the two places a
// documented handoff annotation may sit:
//
//	buf := slabs.Get(n) //hetlint:transfer owner is the ring buffer
//
//	//hetlint:transfer the caller releases via Result.Release
//	return slabs.Get(n)
func (p *Pass) Annotated(n ast.Node, tag string) bool {
	pos := p.Fset.Position(n.Pos())
	for _, line := range []int{pos.Line, pos.Line - 1} {
		key := fmt.Sprintf("%s:%d", pos.Filename, line)
		if p.annotations[key][tag] {
			return true
		}
	}
	return false
}

// Analyzers returns the suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{PoolCheck, ErrWrapCheck, CtxLoopCheck}
}

// RunAnalyzers runs every analyzer over a loaded package and returns the
// findings sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := NewPass(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info, func(d Diagnostic) {
			diags = append(diags, d)
		})
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos.Filename != diags[j].Pos.Filename {
			return diags[i].Pos.Filename < diags[j].Pos.Filename
		}
		if diags[i].Pos.Line != diags[j].Pos.Line {
			return diags[i].Pos.Line < diags[j].Pos.Line
		}
		return diags[i].Pos.Column < diags[j].Pos.Column
	})
	return diags, nil
}
