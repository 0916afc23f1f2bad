package metacompile

import (
	"fmt"
	"strings"
	"sync"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/defects"
	"cogdiff/internal/heap"
	"cogdiff/internal/interp"
	"cogdiff/internal/primitives"
)

// planMaxIterations bounds the concolic exploration a plan is derived
// from. It matches the explorer's default so the generator sees exactly
// the path set the differential tester tests.
const planMaxIterations = 400

// PathPlan classifies one explored path: supported paths become guard
// blocks of the derived compiler, unsupported ones are omitted from the
// chain (the differ skips them deterministically through PathSupported).
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
	Paths       []*PathPlan
	bySig       map[string]*PathPlan
}

// PathBySignature answers the plan entry of a path signature.
func (p *Plan) PathBySignature(sig string) (*PathPlan, bool) {
	pp, ok := p.bySig[sig]
	return pp, ok
}

// PathSupported reports whether the guard chain contains the path, and if
// not, why — the differ's deterministic pre-check before running the
// derived compiler on a unit.
func (p *Plan) PathSupported(sig string) (bool, string) {
	pp, ok := p.bySig[sig]
	if !ok {
		return false, "path not in exploration"
	}
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
// path tree: the iteration budget was not exhausted and no path was
// curated out. Whole-method compilation requires it — an input taking an
// unenumerated path would deoptimize mid-sequence.
func (p *Plan) Complete() bool {
	return p.Exploration.Iterations < planMaxIterations && p.Exploration.CuratedOut == 0
}

// ---- memoization ----

// Plans are derived from a pristine interpreter and depend only on method
// content, so they are shared process-wide: campaigns re-test the same
// instruction under many configurations and must not re-explore each time.
const maxMemoEntries = 4096

type planEntry struct {
	once sync.Once
	plan *Plan
}

var (
	memoMu sync.Mutex
	memo   = make(map[string]*planEntry)
)

// methodKey identifies a method by content (name excluded: rebased
// sub-methods of the same byte-codes share a plan).
func methodKey(m *bytecode.Method) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d/%d/%x", m.NumArgs, m.NumTemps, m.Code)
	for _, lit := range m.Literals {
		fmt.Fprintf(&sb, "|%d:%d:%x:%q", lit.Kind, lit.Int, lit.Float, lit.Str)
	}
	return sb.String()
}

// PlanFor derives (or recalls) the meta-compilation plan of a method. The
// exploration runs against a pristine interpreter — the generator reads
// the interpreter's semantics, never a defect configuration.
func PlanFor(m *bytecode.Method) *Plan {
	key := methodKey(m)
	memoMu.Lock()
	e, ok := memo[key]
	if !ok {
		e = &planEntry{}
		if len(memo) < maxMemoEntries {
			memo[key] = e
		}
	}
	memoMu.Unlock()
	e.once.Do(func() { e.plan = buildPlan(m) })
	return e.plan
}

func buildPlan(m *bytecode.Method) *Plan {
	name := m.Name
	var op bytecode.Op
	if o, _, _, ok := m.FetchOp(0); ok {
		op = o
		if name == "" {
			name = bytecode.Describe(o).Mnemonic
		}
	}
	ex := concolic.NewExplorer(planPrims(), concolic.Options{MaxIterations: planMaxIterations}).
		Explore(concolic.Target{Kind: concolic.TargetBytecode, Name: name, Method: m, Op: op})

	plan := &Plan{
		Method:      m,
		Exploration: ex,
		bySig:       make(map[string]*PathPlan, len(ex.Paths)),
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
		sig := res.Path.Signature()
		if _, dup := plan.bySig[sig]; !dup {
			plan.bySig[sig] = pp
		}
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
	l.lowerPath(res, "dry_fail")
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
