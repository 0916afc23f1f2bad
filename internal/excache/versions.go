package excache

import (
	"cogdiff/internal/interp"
	"cogdiff/internal/jit"
	"cogdiff/internal/machine"
	"cogdiff/internal/primitives"
	"cogdiff/internal/solver"
)

// The live semantic version stamps, collected in one place; tests build
// caches with synthetic Versions to simulate bumps.

func interpVersion() string     { return interp.SemanticsVersion }
func primitivesVersion() string { return primitives.SemanticsVersion }
func solverVersion() string     { return solver.SemanticsVersion }
func jitVersion() string        { return jit.SemanticsVersion }
func machineVersion() string    { return machine.SemanticsVersion }
