package solver

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cogdiff/internal/heap"
	"cogdiff/internal/sym"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// corpusSize is the number of random conjunctions TestSolveCorpusGolden
// pins, on top of the hand-made budget cases.
const corpusSize = 3000

// corpusGen draws random conjunctions over a small universe: every atom
// kind, negation, nested conjunctions and disjunctions, integer and float
// comparisons. It never draws -0.0, whose witnesses depend on the order a
// map yields equal keys in.
type corpusGen struct {
	r    intner
	vars []*sym.Var
}

// intner is the generator's source of choices: a seeded *rand.Rand, or
// a fuzzer's bytes (byteSource).
type intner interface{ Intn(n int) int }

func newCorpusUniverse() (*sym.Universe, []*sym.Var) {
	u := sym.NewUniverse()
	rcvr := u.Receiver()
	s0, s1, s2 := u.Stack(0), u.Stack(1), u.Stack(2)
	t0 := u.Temp(0)
	return u, []*sym.Var{rcvr, s0, s1, s2, t0, u.Slot(rcvr, 0), u.Slot(s0, 1)}
}

func (g *corpusGen) v() *sym.Var { return g.vars[g.r.Intn(len(g.vars))] }

var corpusIntConsts = []int64{0, 1, -1, 2, 3, 7, 100, -100, 255, 1 << 20,
	heap.MaxSmallInt, heap.MinSmallInt, heap.MaxSmallInt + 1, heap.MinSmallInt - 1,
	solverIntMax, solverIntMin}

var corpusFloatConsts = []float64{0, 1, -1, 0.5, 2.5, -3.75, 1e10, 1e21, 5e-324,
	math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64}

func (g *corpusGen) intExpr(depth int) sym.IntExpr {
	switch n := g.r.Intn(10); {
	case n < 3:
		return sym.IntConst{V: corpusIntConsts[g.r.Intn(len(corpusIntConsts))]}
	case n < 6 || depth > 2:
		return sym.IntValueOf{V: g.v()}
	case n < 7:
		return sym.SlotCountOf{V: g.v()}
	default:
		op := []sym.BinOp{sym.OpAdd, sym.OpSub, sym.OpMul, sym.OpDiv, sym.OpMod, sym.OpQuo}[g.r.Intn(6)]
		if g.r.Intn(40) == 0 {
			op = sym.OpBitAnd // an unsupported operator
		}
		return sym.IntBin{Op: op, L: g.intExpr(depth + 1), R: g.intExpr(depth + 1)}
	}
}

func (g *corpusGen) floatExpr(depth int) sym.FloatExpr {
	switch n := g.r.Intn(10); {
	case n < 3:
		return sym.FloatConst{V: corpusFloatConsts[g.r.Intn(len(corpusFloatConsts))]}
	case n < 6 || depth > 2:
		return sym.FloatValueOf{V: g.v()}
	case n < 7:
		return sym.IntToFloat{E: g.intExpr(depth + 1)}
	default:
		op := []sym.BinOp{sym.OpAdd, sym.OpSub, sym.OpMul, sym.OpDiv}[g.r.Intn(4)]
		return sym.FloatBin{Op: op, L: g.floatExpr(depth + 1), R: g.floatExpr(depth + 1)}
	}
}

func (g *corpusGen) atom() sym.Constraint {
	switch g.r.Intn(12) {
	case 0:
		return sym.TypeIs{V: g.v(), Kind: sym.TypeKind(g.r.Intn(int(sym.NumTypeKinds)))}
	case 1:
		cls := g.r.Intn(heap.ClassIndexAssociation + 1)
		if g.r.Intn(8) == 0 {
			cls = heap.FirstUserClassIndex + g.r.Intn(40)
		}
		return sym.ClassIs{V: g.v(), ClassIndex: cls}
	case 2:
		return sym.FormatIs{V: g.v(), F: heap.Format(g.r.Intn(int(heap.FormatCompiledMethod) + 1))}
	case 3:
		return sym.StackSizeAtLeast{N: g.r.Intn(5)}
	case 4:
		return sym.SlotCountAtLeast{V: g.v(), N: g.r.Intn(6) - 1}
	case 5:
		return sym.Identical{A: g.v(), B: g.v()}
	case 6:
		return sym.InSmallIntRange{E: g.intExpr(0)}
	case 7:
		return sym.Bool{B: g.r.Intn(6) != 0}
	case 8, 9:
		return sym.FCmp{Op: sym.CmpOp(g.r.Intn(6)), L: g.floatExpr(0), R: g.floatExpr(0)}
	default:
		return sym.ICmp{Op: sym.CmpOp(g.r.Intn(6)), L: g.intExpr(0), R: g.intExpr(0)}
	}
}

func (g *corpusGen) constraint(depth int) sym.Constraint {
	switch n := g.r.Intn(10); {
	case n < 6 || depth > 1:
		return g.atom()
	case n < 7:
		return sym.Not{C: g.constraint(depth + 1)}
	case n < 8:
		return sym.Negate(g.constraint(depth + 1))
	case n < 9:
		return sym.AllOf{g.constraint(depth + 1), g.constraint(depth + 1)}
	default:
		return sym.AnyOf{g.constraint(depth + 1), g.constraint(depth + 1), g.constraint(depth + 1)}
	}
}

// budgetCases are conjunctions built to reach each of the solver's
// cut-offs and the edges beside them.
func budgetCases(vars []*sym.Var) [][]sym.Constraint {
	var cases [][]sym.Constraint
	// Kind enumeration: every leaf fails on a self-distinct pair, so the
	// search visits 5^n kind assignments.
	for n := 5; n <= 7; n++ {
		cs := []sym.Constraint{sym.Not{C: sym.Identical{A: vars[0], B: vars[0]}}}
		for _, v := range vars[:n] {
			cs = append(cs, sym.Not{C: sym.TypeIs{V: v, Kind: sym.KindNil}})
		}
		cases = append(cases, cs)
	}
	// DNF expansion: 2^n clauses.
	for n := 11; n <= 13; n++ {
		var cs []sym.Constraint
		for i := 0; i < n; i++ {
			cs = append(cs, sym.AnyOf{sym.StackSizeAtLeast{N: i}, sym.Bool{B: false}})
		}
		cases = append(cases, cs)
	}
	// Numeric search: a product no candidate pair reaches.
	for n := 4; n <= 7; n++ {
		var prod sym.IntExpr = sym.IntConst{V: 1}
		var cs []sym.Constraint
		for _, v := range vars[:n] {
			prod = sym.IntBin{Op: sym.OpMul, L: prod, R: sym.IntValueOf{V: v}}
			cs = append(cs, sym.ICmp{Op: sym.CmpGT, L: sym.IntValueOf{V: v}, R: sym.IntConst{V: 1}})
		}
		cases = append(cases, append(cs, sym.ICmp{Op: sym.CmpEQ, L: prod, R: sym.IntConst{V: 7919 * 7907}}))
	}
	return cases
}

// renderOutcome renders Solve's answer for the golden: the model with its
// aliases, or the error.
func renderOutcome(m *sym.Model, err error) string {
	if err != nil {
		class := "error"
		switch {
		case errors.Is(err, ErrUnsat):
			class = "unsat"
		case errors.Is(err, ErrUnsupported):
			class = "unsupported"
		case errors.Is(err, ErrTooComplex):
			class = "too-complex"
		}
		return class + ": " + err.Error()
	}
	s := m.String()
	ids := make([]int, 0, len(m.Alias))
	for id := range m.Alias {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		s += fmt.Sprintf(" v%d->v%d", id, m.Alias[id])
	}
	return s
}

// TestSolveCorpusGolden pins Solve's answer, model or error, on a seeded
// corpus of random conjunctions plus the budget cases, so a change to the
// solver's kernel that moves one witness or one cut-off shows here. Every
// model must also Check, except on the constructs knownUnsound lists,
// whose failing answers the golden marks and pins too. Regenerate with -update only for an intended
// change of witnesses, which also orphans every cached exploration.
func TestSolveCorpusGolden(t *testing.T) {
	u, vars := newCorpusUniverse()
	g := &corpusGen{r: rand.New(rand.NewSource(24)), vars: vars}
	cases := budgetCases(vars)
	for i := 0; i < corpusSize; i++ {
		cs := make([]sym.Constraint, 1+g.r.Intn(6))
		for j := range cs {
			cs[j] = g.constraint(0)
		}
		cases = append(cases, cs)
	}
	var b strings.Builder
	counts := map[string]int{}
	for i, cs := range cases {
		m, err := Solve(u, cs)
		out := renderOutcome(m, err)
		counts[strings.SplitN(out, ":", 2)[0]]++
		if err == nil && !Check(u, m, cs) {
			if !knownUnsound(cs) {
				t.Errorf("case %d: model %s does not satisfy %v", i, m, cs)
			}
			out += " (fails Check)"
		}
		fmt.Fprintf(&b, "%d %s\n", i, out)
	}
	for _, class := range []string{"unsat", "unsupported", "too-complex"} {
		if counts[class] == 0 {
			t.Errorf("the corpus reaches no %s case", class)
		}
	}
	if solved := len(cases) - counts["unsat"] - counts["unsupported"] - counts["too-complex"] - counts["error"]; solved < len(cases)/4 {
		t.Errorf("only %d of %d cases solve", solved, len(cases))
	}
	compareGolden(t, filepath.Join("testdata", "corpus.golden"), b.String())
}

// compareGolden checks got against the golden file, or rewrites the file
// under -update, reporting the first differing line.
func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	want := bufio.NewScanner(f)
	want.Buffer(nil, 1<<20)
	for n, line := range strings.Split(strings.TrimSuffix(got, "\n"), "\n") {
		if !want.Scan() {
			t.Fatalf("%s: line %d is new: %s", path, n+1, line)
		}
		if want.Text() != line {
			t.Fatalf("%s: line %d differs\n got: %s\nwant: %s", path, n+1, line, want.Text())
		}
	}
	if want.Scan() {
		t.Fatalf("%s: golden has more lines, next: %s", path, want.Text())
	}
}

// knownUnsound reports whether a conjunction uses one of the constructs
// on which Solve may return a model that fails Check:
//   - formatOf or a heap class under negation: the exclusion is kept,
//     but a variable with no other constraint is left out of the model
//     and materializes as a plain Object;
//   - a required class outside the boot table, which is trusted with
//     format fixed whatever format the clause requires;
//   - a slot-count bound a Float cannot meet (at least 2 slots, or at
//     most 0): a Float has one slot, but the bound leaves the Float
//     kind open.
func knownUnsound(cs []sym.Constraint) bool {
	bad := false
	var visit func(c sym.Constraint, negated bool)
	visit = func(c sym.Constraint, negated bool) {
		switch n := c.(type) {
		case sym.Not:
			visit(n.C, !negated)
		case sym.AllOf:
			for _, e := range n {
				visit(e, negated)
			}
		case sym.AnyOf:
			for _, e := range n {
				visit(e, negated)
			}
		case sym.ClassIs:
			if classKind(n.ClassIndex) == sym.KindPointer && (negated || n.ClassIndex <= heap.ClassIndexNone || n.ClassIndex >= heap.FirstUserClassIndex) {
				bad = true
			}
		case sym.FormatIs:
			bad = bad || negated
		case sym.SlotCountAtLeast:
			bad = bad || (!negated && n.N >= 2) || (negated && n.N <= 1)
		}
	}
	for _, c := range cs {
		visit(c, false)
	}
	return bad
}
