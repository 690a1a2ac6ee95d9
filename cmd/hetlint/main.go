// Command hetlint is hetjpeg's one lint command; run it from the
// repository root. It loads the packages matching its arguments (./...
// by default) and runs the analyzers of internal/lint:
//
//	poolcheck     pool.Slab.Get/Put pairing, use-after-Put, Result.Release
//	errwrapcheck  %w-wrapping of errors (typed sentinels survive errors.Is)
//	ctxloopcheck  ctx polling in data-sized loops
//
// (exceptions are annotated `//hetlint:transfer` and `//hetlint:nopoll`;
// see the Static analysis section of README.md). Then it audits the hot
// packages' codegen: it rebuilds them with the compiler's bounds-check
// (-d=ssa/check_bce/debug=1) and escape (-m) diagnostics, aggregates
// them per (file, function, kind) and diffs that against the baselines
// in internal/lint/testdata/, so a NEW bounds check or heap escape in a
// hot loop fails like a finding. Raw compiler output goes to
// hetaudit_bce.txt and hetaudit_escape.txt (gitignored).
//
//	hetlint [-q] [packages]     # analyzers + audit; nonzero exit on any finding
//	hetlint -bless [packages]   # analyzers, then rewrite the audit baselines
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"hetjpeg/internal/lint"
)

// hotPackages are the import paths whose codegen is under audit: the
// per-sample inner loops (IDCT, bitstream, Huffman, color) and the
// codec layer that drives them.
var hotPackages = []string{
	"hetjpeg/internal/dct",
	"hetjpeg/internal/bitstream",
	"hetjpeg/internal/huffman",
	"hetjpeg/internal/color",
	"hetjpeg/internal/jpegcodec",
}

const (
	bceBaseline    = "internal/lint/testdata/bce_baseline.txt"
	escapeBaseline = "internal/lint/testdata/escape_baseline.txt"
)

func main() {
	quiet := flag.Bool("q", false, "print findings only, no summary")
	bless := flag.Bool("bless", false, "rewrite the committed audit baselines from the current tree")
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	failed := analyze(patterns, *quiet)
	failed = audit(*bless, *quiet) || failed
	if failed {
		os.Exit(1)
	}
}

// analyze runs the analyzers over the packages and reports whether any
// finding was printed.
func analyze(patterns []string, quiet bool) bool {
	pkgs, err := lint.LoadPackages("", patterns...)
	if err != nil {
		fatal(err)
	}
	analyzers := lint.Analyzers()
	total := 0
	for _, pkg := range pkgs {
		diags, err := lint.RunAnalyzers(pkg, analyzers)
		if err != nil {
			fatal(err)
		}
		for _, d := range diags {
			fmt.Println(d)
		}
		total += len(diags)
	}
	if total > 0 {
		fmt.Fprintf(os.Stderr, "hetlint: %d finding(s) in %d package(s)\n", total, len(pkgs))
		return true
	}
	if !quiet {
		fmt.Printf("hetlint: %d package(s) clean (poolcheck, errwrapcheck, ctxloopcheck)\n", len(pkgs))
	}
	return false
}

// audit builds the hot packages with the compiler's diagnostics on and
// diffs them against the baselines, or with bless rewrites the
// baselines; it reports whether the diff found a regression.
func audit(bless, quiet bool) bool {
	bce := summarize("-d=ssa/check_bce/debug=1", "hetaudit_bce.txt", lint.ParseBCE)
	esc := summarize("-m", "hetaudit_escape.txt", lint.ParseEscape)
	if bless {
		writeBaseline(bceBaseline,
			lint.FormatBaseline("Bounds checks the compiler could not eliminate in the hot packages.", bce))
		writeBaseline(escapeBaseline,
			lint.FormatBaseline("Heap escapes in the hot packages.", esc))
		fmt.Printf("hetlint: blessed %s (%d sites) and %s (%d sites)\n",
			bceBaseline, total(bce), escapeBaseline, total(esc))
		return false
	}
	failed := diff("bounds checks", bceBaseline, bce)
	failed = diff("heap escapes", escapeBaseline, esc) || failed
	if !failed && !quiet {
		fmt.Printf("hetlint: codegen clean (%d bounds-check sites, %d escape sites, all baselined)\n",
			total(bce), total(esc))
	}
	return failed
}

// summarize builds each hot package with the given gcflags applied to
// it alone, keeps the compiler's output in raw, and aggregates what
// parse finds in it. The build cache replays diagnostics on cache hits,
// so repeated runs are fast and deterministic.
func summarize(flags, raw string, parse func(string) []lint.AuditLine) map[lint.AuditKey]int {
	var out strings.Builder
	for _, pkg := range hotPackages {
		cmd := exec.Command("go", "build", "-gcflags="+pkg+"="+flags, pkg)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			fatal(fmt.Errorf("go build %s: %w\n%s", pkg, err, stderr.String()))
		}
		out.WriteString(stderr.String())
	}
	_ = lint.WriteRawAudit(raw, out.String())
	counts, err := lint.Summarize(".", parse(out.String()))
	if err != nil {
		fatal(err)
	}
	return counts
}

func diff(what, baselinePath string, current map[lint.AuditKey]int) bool {
	text, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hetlint: no baseline %s (run `make lint-baseline` once and commit it): %v\n",
			baselinePath, err)
		return true
	}
	baseline, err := lint.ParseBaseline(string(text))
	if err != nil {
		fmt.Fprintf(os.Stderr, "hetlint: %s: %v\n", baselinePath, err)
		return true
	}
	regressions, improvements := lint.DiffBaseline(baseline, current)
	for _, s := range improvements {
		fmt.Printf("hetlint: improved (re-bless to lock in): %s\n", s)
	}
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "hetlint: NEW %s in hot packages (vs %s):\n", what, baselinePath)
		for _, s := range regressions {
			fmt.Fprintf(os.Stderr, "  %s\n", s)
		}
		fmt.Fprintf(os.Stderr, "  If intentional, re-bless with `make lint-baseline` and commit the diff.\n")
		return true
	}
	return false
}

func writeBaseline(path, content string) {
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		fatal(err)
	}
}

func total(m map[lint.AuditKey]int) int {
	n := 0
	for _, c := range m {
		n += c
	}
	return n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hetlint:", err)
	os.Exit(2)
}
