// Package internal embeds the sources of every package that computes or
// decodes a payload of the exploration cache: internal/core and each
// package of this module it imports, except internal/telemetry, which
// only observes (every report is byte-identical with telemetry on or
// off). The cache hashes them into the generation that names its
// segments, so a binary built from other code never reads what this code
// wrote (internal/excache).
//
// Each file is named rather than globbed, so test files stay out of the
// binary. TestSourcesAreTheHashedPackages fails when a hashed package
// gains, loses or renames a file, or imports a package the list leaves
// out.
package internal

import "embed"

// Sources holds the hashed packages' non-test Go files at their paths
// below internal/.
//
//go:embed bytecode/builder.go bytecode/method.go bytecode/opcodes.go
//go:embed concolic/builder.go concolic/explorer.go concolic/target.go
//go:embed concolic/tracer.go
//go:embed core/campaign.go core/canonical.go core/classify.go
//go:embed core/compile.go core/differ.go core/dumpir.go core/execenv.go
//go:embed core/outcome.go core/parallel.go core/reference.go
//go:embed core/sequence.go core/unitcache.go core/verifyir.go
//go:embed defects/defects.go defects/missing.go
//go:embed excache/codec.go excache/excache.go excache/exploration.go
//go:embed heap/bootpool.go heap/memory.go heap/objectmemory.go heap/word.go
//go:embed interp/ctx.go interp/exit.go interp/frame.go
//go:embed interp/instructions.go interp/ops.go interp/value.go
//go:embed ir/builder.go ir/ir.go ir/passes.go
//go:embed irverify/error.go irverify/kernel.go irverify/stack.go
//go:embed irverify/verify.go
//go:embed jit/backend.go jit/cogit.go jit/defs.go jit/genbytecode.go
//go:embed jit/method.go jit/native.go jit/nativeffi.go jit/nativefloat.go
//go:embed jit/nativeint.go jit/nativeobject.go jit/passmetrics.go
//go:embed jit/pipeline.go jit/simstack.go jit/verifycache.go
//go:embed machine/cpu.go machine/encode.go machine/isa.go machine/lower.go
//go:embed machine/program.go
//go:embed metacompile/generator.go metacompile/lower.go
//go:embed metacompile/metacompile.go
//go:embed primitives/bits.go primitives/ffi.go primitives/float.go
//go:embed primitives/integer.go primitives/object.go primitives/table.go
//go:embed solver/check.go solver/eval.go solver/normalize.go
//go:embed solver/numeric.go solver/solver.go
//go:embed sym/constraint.go sym/expr.go sym/model.go sym/render.go
//go:embed sym/var.go
var Sources embed.FS
