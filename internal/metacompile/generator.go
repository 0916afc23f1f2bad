package metacompile

import (
	"fmt"
	"sync"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/defects"
	"cogdiff/internal/heap"
	"cogdiff/internal/interp"
	"cogdiff/internal/ir"
	"cogdiff/internal/primitives"
)

// PathPlan classifies one explored path: supported paths become guard
// blocks of the derived compiler, unsupported ones are omitted from the
// chain (a test skips them deterministically through Supports).
type PathPlan struct {
	Res       *concolic.PathResult
	Supported bool
	// Reason records why the path is not compilable.
	Reason string
}

// Plan is the meta-compilation plan of one method: the interpreter's
// explored path tree plus a per-path supportability classification.
type Plan struct {
	Method      *bytecode.Method
	Exploration *concolic.Exploration
	Paths       []*PathPlan // indexed like Exploration.Paths
}

// notExplored is the reason a path outside the plan's exploration is
// not supported.
const notExplored = "path not in exploration"

// PathSupported reports whether the guard chain contains the first
// explored path whose signature is sig, and if not, why. Code holding
// the path's index asks Supports, which renders no signature.
func (p *Plan) PathSupported(sig string) (bool, string) {
	for _, pp := range p.Paths {
		if pp.Res.Path.Signature() == sig {
			return pp.supported()
		}
	}
	return false, notExplored
}

// Supports reports whether the guard chain contains the i-th path of the
// plan's exploration, and if not, why: the deterministic pre-check a
// test makes before running the derived compiler on a path. A test run
// builds its plan from an exploration with the content of its own, which
// lists the same paths in the same order, so it asks by the index of the
// path it tests.
func (p *Plan) Supports(i int) (bool, string) {
	if i < 0 || i >= len(p.Paths) {
		return false, notExplored
	}
	return p.Paths[i].supported()
}

func (pp *PathPlan) supported() (bool, string) {
	if !pp.Supported {
		return false, pp.Reason
	}
	return true, ""
}

// SupportedPaths returns the guard-chain blocks in discovery order.
func (p *Plan) SupportedPaths() []*PathPlan {
	out := make([]*PathPlan, 0, len(p.Paths))
	for _, pp := range p.Paths {
		if pp.Supported {
			out = append(out, pp)
		}
	}
	return out
}

// Complete reports whether the exploration enumerated the method's whole
// path tree: concolic.DefaultOptions' iteration budget, the one PlanFor
// explores under, was not exhausted and no path was curated out.
// Whole-method compilation requires it — an input taking an unenumerated
// path would deoptimize mid-sequence.
func (p *Plan) Complete() bool {
	return p.Exploration.Iterations < concolic.DefaultOptions().MaxIterations && p.Exploration.CuratedOut == 0
}

// PlanFor derives the meta-compilation plan of a method that has no
// exploration of its own: it explores the method's first instruction
// against a pristine interpreter — the generator reads the interpreter's
// semantics, never a defect configuration — under
// concolic.DefaultOptions, so it sees the path tree a default-configured
// campaign explores, and classifies the exploration (NewPlan).
// Whole-method compilation plans each of its byte-codes this way.
// Nothing is memoized: keyed on the method's content, a fuzz campaign's
// plans were too rarely shared to pay for keeping them.
func PlanFor(m *bytecode.Method) *Plan {
	name := m.Name
	var op bytecode.Op
	if o, _, _, ok := m.FetchOp(0); ok {
		op = o
		if name == "" {
			name = bytecode.Describe(o).Mnemonic
		}
	}
	ex := concolic.NewExplorer(planPrims(), concolic.DefaultOptions()).
		Explore(concolic.Target{Kind: concolic.TargetBytecode, Name: name, Method: m, Op: op})
	return NewPlan(m, ex)
}

// NewPlan classifies ex, an exploration of m's first instruction, into
// m's meta-compilation plan. A test run builds the plan of each
// instruction from the exploration it tests, so the guard chain and the
// skip check read the paths the run's references are built from. ex must
// hold what the lowering reads, each path's constraints and output
// frame, which an exploration decoded from the cache lacks. The plan is
// read-only once built.
func NewPlan(m *bytecode.Method, ex *concolic.Exploration) *Plan {
	plan := &Plan{
		Method:      m,
		Exploration: ex,
		Paths:       make([]*PathPlan, 0, len(ex.Paths)),
	}
	// Supportability classification dry-runs the real lowering against a
	// pooled booted object memory; the verdict is memory-independent
	// because boot is deterministic. The memory goes back to the pool only
	// on a normal return: one a panic abandoned mid-lowering is left to the
	// GC (the pool's containment contract).
	om := heap.AcquireBooted()
	for _, res := range ex.Paths {
		pp := &PathPlan{Res: res}
		switch res.Exit.Kind {
		case interp.ExitSuccess, interp.ExitMessageSend, interp.ExitMethodReturn:
			if err := dryLower(m, ex, res, om); err != nil {
				pp.Reason = err.Error()
			} else {
				pp.Supported = true
			}
		default:
			pp.Reason = fmt.Sprintf("exit %v has no compiled form", res.Exit.Kind)
		}
		plan.Paths = append(plan.Paths, pp)
	}
	heap.ReleaseBooted(om)
	return plan
}

// planPrims is the primitive table every plan explores against. A table
// is read-only once built, so one instance serves all plans, and it is
// built on the first plan so programs that never meta-compile skip it.
var planPrims = sync.OnceValue(primitives.NewTable)

// dryLower runs the single-instruction lowering of one path to classify
// it. Compilation errors surface here once, at plan time, so the guard
// chain only ever contains paths that lower cleanly.
func dryLower(m *bytecode.Method, ex *concolic.Exploration, res *concolic.PathResult, om *heap.ObjectMemory) error {
	l := newLowerer(om, defects.Switches{}, m.TempCount())
	l.u = ex.Universe
	prepareInstruction(l, m)
	if l.err != nil {
		return l.err
	}
	if l.family == bytecode.FamCallPrimitive {
		return fmt.Errorf("metacompile: called primitives may have untracked heap effects")
	}
	l.lowerPath(res, l.b.AddLabel(ir.Named("dry_fail")))
	return l.err
}

// prepareInstruction decodes the instruction under test into the
// lowerer's per-instruction state.
func prepareInstruction(l *lowerer, m *bytecode.Method) {
	op, _, next, ok := m.FetchOp(0)
	if !ok {
		l.fail("metacompile: undecodable byte-code")
		return
	}
	d := bytecode.Describe(op)
	l.family = d.Family
	l.embedded = d.Embedded
	l.next0 = next
	l.codeLen = len(m.Code)
}
