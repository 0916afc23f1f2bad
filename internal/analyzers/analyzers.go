// Package analyzers implements the repository's invariant linters:
// static analyses over the cogdiff source tree that catch determinism
// hazards and metric naming drift before they can corrupt the
// byte-identical report surface or the telemetry it is read beside.
//
// The package is deliberately self-contained — parsed ASTs plus go/types
// over the standard library only — so the linters need no external
// dependencies. Their one harness is TestRepoLintsClean, which loads
// every package under the repository root (bench/ and examples/
// included) and fails on any diagnostic; tier 1 runs it, and `make lint`
// runs it alone.
//
// Two analyzers ship:
//
//   - determinism: no time.Now/time.Since/time.Until, no math/rand, and
//     no ranging over maps outside test files. All three inject
//     schedule- or seed-dependent values that are forbidden on the
//     byte-identical report surface. Intentional sites (telemetry
//     timings, the seeded fuzzer RNG) carry a
//     `//cogdiff:allow-nondeterminism <reason>` directive.
//   - telemetryname: metric name constants follow the cogdiff_* naming
//     scheme, counters end in _total and timers in _seconds, checked at
//     every Registry.Counter/Timer call site via constant folding.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one linter finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass is the per-package unit of work handed to each analyzer: the
// package's syntax, its type information, and the allow-directive index.
type Pass struct {
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	ImportPath string

	directives map[string]map[int]string // file -> line -> reason
}

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) []Diagnostic
}

// All returns the repository's analyzer set in canonical order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, TelemetryName}
}

// RunAll applies every analyzer to the pass and returns the findings
// sorted by position, so driver output is deterministic.
func RunAll(p *Pass) []Diagnostic {
	p.indexDirectives()
	var out []Diagnostic
	for _, a := range All() {
		out = append(out, a.Run(p)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// allowDirective is the in-source waiver for the determinism analyzer.
// It must carry a reason: a bare waiver documents nothing.
const allowDirective = "//cogdiff:allow-nondeterminism"

// indexDirectives scans every comment for allow directives and records
// them by file and line.
func (p *Pass) indexDirectives() {
	p.directives = make(map[string]map[int]string)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowDirective) {
					continue
				}
				reason := strings.TrimSpace(strings.TrimPrefix(c.Text, allowDirective))
				pos := p.Fset.Position(c.Pos())
				byLine := p.directives[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]string)
					p.directives[pos.Filename] = byLine
				}
				byLine[pos.Line] = reason
			}
		}
	}
}

// allowed reports whether the node at pos is covered by an allow
// directive — on the same line or the line directly above — and whether
// that directive carries the mandatory reason.
func (p *Pass) allowed(pos token.Position) (covered, hasReason bool) {
	byLine := p.directives[pos.Filename]
	if byLine == nil {
		return false, false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if reason, ok := byLine[line]; ok {
			return true, reason != ""
		}
	}
	return false, false
}

// diag builds a positioned diagnostic.
func (p *Pass) diag(name string, pos token.Pos, format string, args ...any) Diagnostic {
	return Diagnostic{Pos: p.Fset.Position(pos), Analyzer: name, Message: fmt.Sprintf(format, args...)}
}

// isTestFile reports whether the file a node belongs to is a _test.go
// file; test code may use wall clocks, RNGs and map iteration freely.
func (p *Pass) isTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}
