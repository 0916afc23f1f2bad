package concolic_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/defects"
	"cogdiff/internal/excache"
	"cogdiff/internal/primitives"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// catalogTargets lists the campaign's instruction catalog in campaign
// order: every byte-code but callPrimitive, then every native method.
func catalogTargets() []concolic.Target {
	var out []concolic.Target
	for _, op := range bytecode.AllOpcodes() {
		if bytecode.Describe(op).Family != bytecode.FamCallPrimitive {
			out = append(out, concolic.BytecodeTarget(op))
		}
	}
	for _, p := range primitives.NewTable().All() {
		out = append(out, concolic.NativeMethodTarget(p.Index, p.Name, p.NumArgs))
	}
	return out
}

// contentHash hashes what differential testing consumes of an
// exploration: the SHA-256 of its cache payload (its constraints, exits,
// witness models and universe) without the trailing wall-clock duration.
func contentHash(ex *concolic.Exploration) string {
	ex.Duration = 0 // a zero duration encodes as one byte
	payload := excache.MarshalExploration(ex)
	sum := sha256.Sum256(payload[:len(payload)-1])
	return hex.EncodeToString(sum[:])
}

// TestCatalogExplorationsGolden pins every exploration of the catalog:
// one line per (defect setting, target) at the default bound with the
// exploration's content hash, iteration count and curated count, plus
// one digest line per (defect setting, bound) over the content hashes at
// the bounds 1, 3, 10 and 50. A change to the explorer or the solver
// that moves one witness, one path or one cut-off shows here.
// Regenerate with -update only for an intended change of explorations,
// which also orphans every cached exploration.
func TestCatalogExplorationsGolden(t *testing.T) {
	prims := primitives.NewTable()
	targets := catalogTargets()
	var b strings.Builder
	for _, setting := range []struct {
		name     string
		switches defects.Switches
	}{{"production", defects.ProductionVM()}, {"pristine", defects.Pristine()}} {
		for _, bound := range []int{concolic.DefaultOptions().MaxIterations, 1, 3, 10, 50} {
			explorer := concolic.NewExplorer(prims, concolic.Options{
				MaxIterations:      bound,
				InterpreterDefects: setting.switches.Interpreter(),
			})
			digest := sha256.New()
			for _, target := range targets {
				ex := explorer.Explore(target)
				hash := contentHash(ex)
				digest.Write([]byte(hash))
				if bound == concolic.DefaultOptions().MaxIterations {
					fmt.Fprintf(&b, "%s %s %s iterations=%d curated=%d\n",
						setting.name, target.Name, hash[:16], ex.Iterations, ex.CuratedOut)
				}
			}
			fmt.Fprintf(&b, "digest %s bound=%d %s\n", setting.name, bound, hex.EncodeToString(digest.Sum(nil))[:16])
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "catalog.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s: line %d differs\n got: %s\nwant: %s", path, i+1, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s: %d lines, want %d", path, len(gotLines), len(wantLines))
	}
}
