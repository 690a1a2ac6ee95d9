package lint

// Codegen audit: parse the Go compiler's bounds-check-elimination and
// escape-analysis diagnostics, attribute each site to its enclosing
// function, and diff the aggregate against a committed baseline. The
// hot loops in this repo (integer IDCT, bitstream refill, Huffman walk,
// color convert) were hand-shaped so the compiler proves their index
// expressions in bounds and keeps their scratch on the stack; a NEW
// bounds check or heap escape in one of them is a silent performance
// regression that go test cannot see. cmd/hetlint runs
//
//	go build -gcflags='<pkg>=-d=ssa/check_bce/debug=1' <pkg>   (BCE)
//	go build -gcflags='<pkg>=-m' <pkg>                         (escape)
//
// and feeds the stderr through this file. Baselines are keyed
// (file, function, kind) with a count — line numbers shift on every
// edit, but a function either keeps its checks eliminated or it does
// not — so unrelated edits never churn the baseline.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// AuditLine is one compiler diagnostic: a bounds check the SSA pass
// could not eliminate, or a value escape analysis sent to the heap.
type AuditLine struct {
	File string // path as printed by the compiler (repo-relative)
	Line int
	Col  int
	Kind string // "IsInBounds", "IsSliceInBounds", "moved-to-heap", "escapes-to-heap"
}

// diagRE matches the `file:line:col: message` shape of compiler
// diagnostics. The message part is classified by the callers.
var diagRE = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// ParseBCE extracts unproven bounds checks from
// `-d=ssa/check_bce/debug=1` output. Lines that are not
// "Found Is(Slice)?InBounds" diagnostics are ignored.
func ParseBCE(output string) []AuditLine {
	var out []AuditLine
	sc := bufio.NewScanner(strings.NewReader(output))
	for sc.Scan() {
		m := diagRE.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		var kind string
		switch {
		case strings.HasPrefix(m[4], "Found IsSliceInBounds"):
			kind = "IsSliceInBounds"
		case strings.HasPrefix(m[4], "Found IsInBounds"):
			kind = "IsInBounds"
		default:
			continue
		}
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		out = append(out, AuditLine{File: m[1], Line: line, Col: col, Kind: kind})
	}
	return out
}

// ParseEscape extracts heap escapes from `-m` output. Inlining notes
// and the (good) "does not escape" lines are ignored.
func ParseEscape(output string) []AuditLine {
	var out []AuditLine
	sc := bufio.NewScanner(strings.NewReader(output))
	for sc.Scan() {
		m := diagRE.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		var kind string
		switch {
		case strings.HasPrefix(m[4], "moved to heap:"):
			kind = "moved-to-heap"
		case strings.HasSuffix(m[4], "escapes to heap") && !strings.Contains(m[4], "does not escape"):
			kind = "escapes-to-heap"
		default:
			continue
		}
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		out = append(out, AuditLine{File: m[1], Line: line, Col: col, Kind: kind})
	}
	return out
}

// AuditKey identifies one class of codegen site stably across edits.
type AuditKey struct {
	File string // repo-relative path
	Func string // enclosing function ("Recv.Method" or "Func"); "<file>" outside any function
	Kind string
}

func (k AuditKey) String() string { return k.File + " " + k.Func + " " + k.Kind }

// funcSpan is one function's position extent within a file.
type funcSpan struct {
	name       string
	start, end int // line numbers, inclusive
}

// fileFuncs parses path and returns the line spans of its top-level
// functions, receiver-qualified for methods.
func fileFuncs(path string) ([]funcSpan, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var spans []funcSpan
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		name := fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) == 1 {
			name = recvTypeName(fd.Recv.List[0].Type) + "." + name
		}
		spans = append(spans, funcSpan{
			name:  name,
			start: fset.Position(fd.Pos()).Line,
			end:   fset.Position(fd.End()).Line,
		})
	}
	return spans, nil
}

func recvTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr:
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	}
	return "?"
}

// Summarize attributes each diagnostic to its enclosing function and
// aggregates counts per (file, function, kind). root is the directory
// the compiler paths are relative to (the repo root).
func Summarize(root string, lines []AuditLine) (map[AuditKey]int, error) {
	spanCache := map[string][]funcSpan{}
	counts := map[AuditKey]int{}
	for _, l := range lines {
		spans, ok := spanCache[l.File]
		if !ok {
			var err error
			spans, err = fileFuncs(filepath.Join(root, l.File))
			if err != nil {
				return nil, fmt.Errorf("audit: attributing %s: %w", l.File, err)
			}
			spanCache[l.File] = spans
		}
		fn := "<file>"
		for _, s := range spans {
			if l.Line >= s.start && l.Line <= s.end {
				fn = s.name
				break
			}
		}
		counts[AuditKey{File: l.File, Func: fn, Kind: l.Kind}]++
	}
	return counts, nil
}

// FormatBaseline renders counts as the committed baseline text:
// sorted, one "file func kind count" per line, with a header comment
// explaining how to regenerate it.
func FormatBaseline(header string, counts map[AuditKey]int) string {
	keys := make([]AuditKey, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", header)
	b.WriteString("# Regenerate with: make lint-baseline (runs hetlint -bless).\n")
	b.WriteString("# Format: file function kind count\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s %s %d\n", k.File, k.Func, k.Kind, counts[k])
	}
	return b.String()
}

// ParseBaseline reads a baseline written by FormatBaseline.
func ParseBaseline(text string) (map[AuditKey]int, error) {
	counts := map[AuditKey]int{}
	sc := bufio.NewScanner(strings.NewReader(text))
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			return nil, fmt.Errorf("baseline line %d: want 4 fields, got %d", lineno, len(f))
		}
		n, err := strconv.Atoi(f[3])
		if err != nil {
			return nil, fmt.Errorf("baseline line %d: bad count %q", lineno, f[3])
		}
		counts[AuditKey{File: f[0], Func: f[1], Kind: f[2]}] = n
	}
	return counts, nil
}

// DiffBaseline compares the current audit against the committed
// baseline. Regressions (new sites, or more sites in a known
// function) fail the gate; improvements (sites that disappeared) are
// reported so the baseline can be tightened with -bless.
func DiffBaseline(baseline, current map[AuditKey]int) (regressions, improvements []string) {
	keys := map[AuditKey]bool{}
	for k := range baseline {
		keys[k] = true
	}
	for k := range current {
		keys[k] = true
	}
	sorted := make([]AuditKey, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].String() < sorted[j].String() })
	for _, k := range sorted {
		was, now := baseline[k], current[k]
		switch {
		case now > was:
			regressions = append(regressions,
				fmt.Sprintf("%s: %s in %s: %d -> %d", k.File, k.Kind, k.Func, was, now))
		case now < was:
			improvements = append(improvements,
				fmt.Sprintf("%s: %s in %s: %d -> %d", k.File, k.Kind, k.Func, was, now))
		}
	}
	return regressions, improvements
}

// WriteRawAudit saves the raw compiler output next to the repo root
// for human inspection (gitignored; the baselines are the record).
func WriteRawAudit(path, output string) error {
	return os.WriteFile(path, []byte(output), 0o644)
}
