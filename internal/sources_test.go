package internal_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cogdiff/internal"
)

// unhashed are the packages of this module that a hashed package may
// import without being hashed: telemetry only observes (every report is
// byte-identical with it on or off), and this package holds the list.
var unhashed = map[string]bool{
	"cogdiff/internal":           true,
	"cogdiff/internal/telemetry": true,
}

// TestSourcesAreTheHashedPackages pins the embedded list against the
// tree: it names exactly the non-test Go files of each hashed package,
// internal/core is hashed, and every package of this module a hashed
// file imports is hashed too, but for unhashed. A new file or a new
// dependency then fails here instead of escaping the cache's generation.
func TestSourcesAreTheHashedPackages(t *testing.T) {
	embedded := map[string][]string{} // package directory -> file names
	err := fs.WalkDir(internal.Sources, ".", func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			embedded[path.Dir(p)] = append(embedded[path.Dir(p)], path.Base(p))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(embedded["core"]) == 0 {
		t.Fatal("internal/core is not hashed")
	}
	fset := token.NewFileSet()
	for dir, files := range embedded {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var sources []string
		for _, e := range entries {
			if name := e.Name(); strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
				sources = append(sources, name)
			}
		}
		if !slices.Equal(files, sources) {
			t.Errorf("internal/%s: the embed names %v, the package's sources are %v", dir, files, sources)
		}
		for _, name := range sources {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range f.Imports {
				imported, _ := strconv.Unquote(spec.Path.Value)
				if imported != "cogdiff" && !strings.HasPrefix(imported, "cogdiff/") || unhashed[imported] {
					continue
				}
				if rel, ok := strings.CutPrefix(imported, "cogdiff/internal/"); !ok || embedded[rel] == nil {
					t.Errorf("internal/%s/%s imports %s, whose sources are not hashed", dir, name, imported)
				}
			}
		}
	}
}
