package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// ErrWrapCheck guards the typed-sentinel contract: ErrUnsupported,
// ErrUnsupportedScale and ErrPartialData must survive errors.Is through
// every layer (jpegcodec → core → batch → imaged; ErrPartialData
// additionally rides *alongside* a usable result on the salvage path,
// where losing the sentinel would turn "degraded but displayable" into
// "corrupt"), so an error value may only be folded into a new error
// with %w. Formatting an error-typed argument
// with %v/%s/%q re-stringifies it and silently breaks errors.Is; so does
// interpolating err.Error().
var ErrWrapCheck = &Analyzer{
	Name: "errwrapcheck",
	Doc:  "errors must be wrapped with %w, not re-stringified with %v/%s or err.Error()",
	Run:  runErrWrapCheck,
}

func runErrWrapCheck(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if calleeName(pass.Info, call) != "fmt.Errorf" || len(call.Args) < 2 {
				return true
			}
			lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
			if !ok {
				return true // non-constant format: nothing to line verbs up against
			}
			format, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			verbs, ok := formatVerbs(format)
			if !ok {
				return true // indexed arguments: bail rather than misattribute
			}
			for _, v := range verbs {
				argIdx := 1 + v.arg
				if argIdx >= len(call.Args) {
					break
				}
				arg := call.Args[argIdx]
				if v.verb == 'w' || v.verb == 'T' || v.verb == 'p' {
					continue
				}
				tv, ok := pass.Info.Types[arg]
				if !ok || !implementsError(tv.Type) {
					continue
				}
				pass.Reportf(arg.Pos(), "error %s formatted with %%%c; wrap it with %%w so errors.Is keeps working across layers",
					describeErrArg(pass, arg), v.verb)
			}
			// err.Error() interpolated under any verb is the same
			// re-stringification with extra steps.
			for _, arg := range call.Args[1:] {
				if c, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
					if sel, ok := c.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Error" && len(c.Args) == 0 {
						if tv, ok := pass.Info.Types[sel.X]; ok && implementsError(tv.Type) {
							pass.Reportf(arg.Pos(), "err.Error() interpolated into fmt.Errorf re-stringifies the error; pass the error itself with %%w")
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// describeErrArg names the argument in the diagnostic; the typed
// sentinels get called out explicitly since they are the contract.
func describeErrArg(pass *Pass, arg ast.Expr) string {
	var obj types.Object
	switch a := ast.Unparen(arg).(type) {
	case *ast.Ident:
		obj = pass.Info.Uses[a]
	case *ast.SelectorExpr:
		obj = pass.Info.Uses[a.Sel]
	}
	if obj != nil {
		if strings.HasPrefix(obj.Name(), "Err") {
			return "sentinel " + obj.Name()
		}
		return obj.Name()
	}
	return "value"
}

type verbAt struct {
	verb byte
	arg  int // operand index consumed by this verb
}

// formatVerbs maps each format verb to the operand index it consumes,
// accounting for `*` width/precision operands. ok is false when the
// format uses explicit argument indexes (%[n]v), which this checker
// does not model.
func formatVerbs(format string) (verbs []verbAt, ok bool) {
	arg := 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue
		}
		// flags, width, precision
		for i < len(format) {
			c := format[i]
			if c == '[' {
				return nil, false
			}
			if c == '*' {
				arg++
				i++
				continue
			}
			if c == '#' || c == '+' || c == '-' || c == ' ' || c == '0' || c == '.' || (c >= '0' && c <= '9') {
				i++
				continue
			}
			break
		}
		if i >= len(format) {
			break
		}
		verbs = append(verbs, verbAt{verb: format[i], arg: arg})
		arg++
	}
	return verbs, true
}
