package jit

import (
	"cogdiff/internal/defects"
	"cogdiff/internal/ir"
)

// standardPipeline builds the pass pipeline every byte-code variant runs
// between its front-end and lowering; the native method compiler runs
// none (its templates are already shaped). The two switches inject the
// pass-targeted defects. Order matters: dead-push/pop elimination first
// turns the simple variant's materialize-and-reload traffic into
// register moves that constant folding can then see through.
func standardPipeline(constFoldSignError, verifyStackLeak bool) []ir.Pass {
	return []ir.Pass{ir.DeadPushPop(), ir.ConstFold(constFoldSignError), ir.Peephole(verifyStackLeak)}
}

// standardPipelines holds standardPipeline built once per setting of the
// only two defect switches that reach a pass, indexed by
// ConstFoldSignError, then VerifyStackLeak.
var standardPipelines = [2][2][]ir.Pass{
	{standardPipeline(false, false), standardPipeline(false, true)},
	{standardPipeline(true, false), standardPipeline(true, true)},
}

// PipelineFor returns the variant's pass pipeline under the given defect
// switches. The slice is built once and shared, so callers must not
// modify it.
func PipelineFor(v Variant, sw defects.Switches) []ir.Pass {
	switch v {
	case SimpleStackBasedCogit, StackToRegisterCogit, RegisterAllocatingCogit, MetaJITCogit:
		return standardPipelines[switchIndex(sw.ConstFoldSignError)][switchIndex(sw.VerifyStackLeak)]
	}
	return nil
}

// switchIndex maps a switch to its pipeline-table index.
func switchIndex(on bool) int {
	if on {
		return 1
	}
	return 0
}
