package analyzers_test

// The analyzer tests follow the classic vet-test shape: each testdata
// package is real, type-checked Go whose lines carry `// want "substr"`
// annotations. Running the analyzers must produce exactly the annotated
// diagnostics — every want matched, nothing extra — so a rule that goes
// quiet or chatty fails loudly with positions.

import (
	"go/ast"
	"go/parser"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"cogdiff/internal/analyzers"
)

var wantPattern = regexp.MustCompile(`// want "([^"]*)"`)

// runTestdata type-checks one testdata directory under the given import
// path and diffs the analyzer output against its want annotations.
func runTestdata(t *testing.T, dir, importPath string) {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	loader := analyzers.NewLoader(root, "cogdiff")
	full := filepath.Join("testdata", dir)
	entries, err := os.ReadDir(full)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)

	type key struct {
		file string
		line int
	}
	wants := make(map[key][]string)
	var files []*ast.File
	for _, name := range names {
		path := filepath.Join(full, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantPattern.FindAllStringSubmatch(line, -1) {
				k := key{path, i + 1}
				wants[k] = append(wants[k], m[1])
			}
		}
		f, err := parser.ParseFile(loader.Fset(), path, data, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}

	pass, err := loader.Check(importPath, files)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range analyzers.RunAll(pass) {
		k := key{d.Pos.Filename, d.Pos.Line}
		matched := -1
		for i, w := range wants[k] {
			if strings.Contains(d.Message, w) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
	}
	for k, ws := range wants {
		for _, w := range ws {
			t.Errorf("%s:%d: annotated want %q produced no diagnostic", k.file, k.line, w)
		}
	}
}

func TestDeterminism(t *testing.T) {
	runTestdata(t, "determinism", "cogdiff/testdata/determinism")
}

func TestTelemetryNameDecls(t *testing.T) {
	// The telemetry import path switches on the declaration-side rule.
	runTestdata(t, "telemetry_decl", "cogdiff/internal/telemetry")
}

func TestTelemetryNameUses(t *testing.T) {
	runTestdata(t, "telemetry_use", "cogdiff/testdata/use")
}

// TestRepoLintsClean is the in-tree acceptance gate: the analyzers run
// over every package of this module and must report nothing. Any new
// wall clock, RNG, ordered map emission or metric naming drift fails
// this test with exact positions.
func TestRepoLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module source typecheck is seconds of work; skipped in -short")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	loader := analyzers.NewLoader(root, "cogdiff")
	pkgs, err := loader.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("module walk found only %d packages: %v", len(pkgs), pkgs)
	}
	for _, pkg := range pkgs {
		pass, err := loader.LoadPackage(pkg)
		if err != nil {
			t.Fatalf("load %s: %v", pkg, err)
		}
		for _, d := range analyzers.RunAll(pass) {
			t.Errorf("%s", d)
		}
	}
}
