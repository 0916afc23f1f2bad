package concolic

import (
	"errors"
	"time"

	"cogdiff/internal/heap"
	"cogdiff/internal/interp"
	"cogdiff/internal/solver"
	"cogdiff/internal/sym"
	"cogdiff/internal/telemetry"
)

// PathResult is one discovered execution path of an instruction: the model
// that reaches it, the recorded path conditions, the exit condition and
// copies of the abstract input and output frames (§3.2).
type PathResult struct {
	Path  sym.Path
	Model *sym.Model
	Exit  interp.Exit

	// InputFrame and OutputFrame are deep copies taken before and after
	// the execution; instructions have side effects, so they must be
	// distinct objects.
	InputFrame  *interp.Frame
	OutputFrame *interp.Frame
}

// Exploration is the full concolic exploration of one instruction.
type Exploration struct {
	Target   Target
	Universe *sym.Universe
	// Paths are the supported execution paths, in discovery order.
	Paths []*PathResult
	// CuratedOut counts paths dropped because the prototype cannot handle
	// them: solver-unsupported constraints (bitwise), over-complex
	// formulas, or instructions marked unsupported (§5.2).
	CuratedOut int
	// Iterations is the number of concolic executions performed.
	Iterations int
	// Duration is the wall-clock exploration time (Fig. 6).
	Duration time.Duration
}

// Options tunes an exploration.
type Options struct {
	// MaxIterations bounds the number of concolic executions per
	// instruction (runaway protection; generous by default).
	MaxIterations int
	// InterpreterDefects forwards seeded interpreter defects.
	InterpreterDefects interp.DefectSwitches
	// Metrics, when non-nil, counts solver invocations. Exploration
	// results are unaffected; the counter is a pure sink.
	Metrics *telemetry.Registry
	// NoReuse disables the booted-object-memory pool: every concolic
	// execution boots a fresh heap. Booting is deterministic, so results
	// are byte-identical either way; the determinism suite flips this to
	// pin that claim.
	NoReuse bool
}

// DefaultOptions returns the standard exploration settings.
func DefaultOptions() Options {
	return Options{MaxIterations: 400}
}

// Explorer drives concolic path exploration over VM instructions.
type Explorer struct {
	Prims interp.PrimitiveTable
	Opts  Options

	solverCalls *telemetry.Counter // resolved once; nil when metrics are off
}

// NewExplorer builds an explorer using the given native-method table.
func NewExplorer(prims interp.PrimitiveTable, opts Options) *Explorer {
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = DefaultOptions().MaxIterations
	}
	return &Explorer{
		Prims:       prims,
		Opts:        opts,
		solverCalls: opts.Metrics.Counter(telemetry.MetricSolverCalls),
	}
}

// workItem is a constraint prefix scheduled for solving.
type workItem struct {
	assumptions []sym.Constraint
}

// Explore discovers the execution paths of one instruction: the classic
// concolic loop of §2.3, except it never stops at errors — every exit
// condition is a first-class result.
func (e *Explorer) Explore(t Target) *Exploration {
	start := time.Now() //cogdiff:allow-nondeterminism exploration timing feeds telemetry histograms only
	u := sym.NewUniverse()
	ex := &Exploration{Target: t, Universe: u}

	worklist := []workItem{{}}
	seenPaths := map[string]bool{}
	tried := map[string]bool{"": true}
	var signatures sym.Signer

	for len(worklist) > 0 && ex.Iterations < e.Opts.MaxIterations {
		item := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]

		e.solverCalls.Inc()
		model, err := solver.Solve(u, item.assumptions)
		if err != nil {
			if !errors.Is(err, solver.ErrUnsat) {
				// Bitwise or over-complex constraints: curated out, like
				// the paths the paper's prototype cannot initialize.
				ex.CuratedOut++
			}
			continue
		}

		res, runErr := e.runOnce(t, u, model, len(item.assumptions))
		ex.Iterations++
		if runErr != nil {
			ex.CuratedOut++
			continue
		}

		prefix := res.Path.Constraints()
		sig := signatures.Sign(res.Path)
		if !seenPaths[sig] {
			seenPaths[sig] = true
			if res.Exit.Kind == interp.ExitUnsupported {
				ex.CuratedOut++
			} else {
				// Refine the witness: solve the full recorded path so the
				// stored model is the canonical solver witness for every
				// condition (the concrete values of Table 1), not just
				// the parent prefix.
				e.solverCalls.Inc()
				if refined, err := solver.Solve(u, prefix); err == nil {
					res.Model = refined
				}
				ex.Paths = append(ex.Paths, res)
			}
		}

		// Generational expansion: negate every recorded condition beyond
		// the assumed prefix.
		for i := len(item.assumptions); i < len(prefix); i++ {
			negated := sym.Negate(prefix[i])
			csig := signatures.Extend(i, negated)
			if !tried[csig] {
				tried[csig] = true
				child := make([]sym.Constraint, 0, i+1)
				child = append(child, prefix[:i]...)
				child = append(child, negated)
				worklist = append(worklist, workItem{assumptions: child})
			}
		}
	}
	ex.Duration = time.Since(start) //cogdiff:allow-nondeterminism exploration timing feeds telemetry histograms only
	return ex
}

// runOnce performs one concolic execution under a model. The execution
// borrows a pooled booted object memory (the result captures frames and
// path data by value, never the memory itself) and releases it on normal
// return; a contained panic abandons it to the GC instead.
func (e *Explorer) runOnce(t Target, u *sym.Universe, model *sym.Model, assumed int) (*PathResult, error) {
	var om *heap.ObjectMemory
	if e.Opts.NoReuse {
		om = heap.NewBootedObjectMemory()
	} else {
		om = heap.AcquireBooted()
	}
	b := NewFrameBuilder(om, u, model)
	frame, err := b.BuildFrame(t)
	if err != nil {
		if !e.Opts.NoReuse {
			heap.ReleaseBooted(om)
		}
		return nil, err
	}
	input := frame.Clone()

	tr := newTracer(u, assumed)
	ctx := interp.NewCtx(om, frame, t.Method)
	ctx.Tracer = tr
	ctx.Primitives = e.Prims
	ctx.InterpreterDefects = e.Opts.InterpreterDefects

	exit := t.run(ctx, e.Prims)
	res := &PathResult{
		Path:        tr.path,
		Model:       model,
		Exit:        exit,
		InputFrame:  input,
		OutputFrame: frame.Clone(),
	}
	if !e.Opts.NoReuse {
		heap.ReleaseBooted(om)
	}
	return res, nil
}
