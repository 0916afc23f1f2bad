package analyzers

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// TelemetryName pins the metric naming scheme the dashboards and the
// bench exporter key on: every metric name constant (Metric*) in the
// telemetry package matches `cogdiff_[a-z0-9_]+`, and at every
// registration site that the compiler can constant-fold, counters end
// in `_total` and timers in `_seconds`. The check runs on call
// arguments, not just the constant declarations, so a raw string
// literal slipped into Registry.Counter is caught at its use.
var TelemetryName = &Analyzer{
	Name: "telemetryname",
	Doc:  "metric names follow the cogdiff_* scheme; counters end _total, timers _seconds",
	Run:  runTelemetryName,
}

const telemetryPkgPath = "cogdiff/internal/telemetry"

var metricNamePattern = regexp.MustCompile(`^cogdiff_[a-z0-9_]+$`)

// registrySuffix maps Registry registration methods to the unit suffix
// their metric names must carry.
var registrySuffix = map[string]string{
	"Counter": "_total",
	"Timer":   "_seconds",
}

func runTelemetryName(p *Pass) []Diagnostic {
	var out []Diagnostic

	// Declaration-side check: Metric* constants in the telemetry package.
	if p.ImportPath == telemetryPkgPath {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						if !strings.HasPrefix(name.Name, "Metric") || p.isTestFile(name.Pos()) {
							continue
						}
						if val, ok := constStringValue(p, name); ok && !metricNamePattern.MatchString(val) {
							out = append(out, p.diag("telemetryname", name.Pos(),
								"metric constant %s = %q does not match cogdiff_[a-z0-9_]+", name.Name, val))
						}
					}
				}
			}
		}
	}

	// Use-side check: fold the name argument at every registration call.
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 || p.isTestFile(call.Pos()) {
				return true
			}
			fn := calleeFunc(p.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != telemetryPkgPath {
				return true
			}
			suffix, isReg := registrySuffix[fn.Name()]
			if !isReg || !isRegistryMethod(fn) {
				return true
			}
			tv, ok := p.Info.Types[call.Args[0]]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				return true // dynamic name: nothing to fold
			}
			name := constant.StringVal(tv.Value)
			switch {
			case !metricNamePattern.MatchString(name):
				out = append(out, p.diag("telemetryname", call.Args[0].Pos(),
					"metric name %q does not match cogdiff_[a-z0-9_]+", name))
			case !strings.HasSuffix(name, suffix):
				out = append(out, p.diag("telemetryname", call.Args[0].Pos(),
					"%s metric %q must end in %q", fn.Name(), name, suffix))
			}
			return true
		})
	}
	return out
}

// isRegistryMethod reports whether fn is a method on telemetry.Registry.
func isRegistryMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Registry"
}

// constStringValue folds a constant identifier to its string value.
func constStringValue(p *Pass, id *ast.Ident) (string, bool) {
	obj := p.Info.Defs[id]
	if obj == nil {
		return "", false
	}
	c, ok := obj.(interface{ Val() constant.Value })
	if !ok {
		return "", false
	}
	v := c.Val()
	if v == nil || v.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(v), true
}
