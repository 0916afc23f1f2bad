// Quickstart: concolically explore one byte-code instruction and
// differentially test it against a JIT compiler.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"cogdiff"
)

func main() {
	// Step 1 (paper §2.3): concolic exploration of the interpreter
	// discovers every execution path of the instruction, together with
	// the input constraints and concrete witnesses that reach them.
	ex, err := cogdiff.Explore("primAdd")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("concolic exploration of %s: %d paths in %s\n\n", ex.Instruction, len(ex.Paths), ex.Duration)
	for i, p := range ex.Paths {
		fmt.Printf("  path %-2d exit=%-18s witness: %s\n", i+1, p.Exit, p.Witness)
	}

	// Step 2-4 (paper §2.4): compile the instruction per discovered path,
	// execute the machine code on the simulated CPU, and compare the
	// observable behaviour against the interpreter.
	fmt.Println("\ndifferential testing against the stack-to-register compiler:")
	res, err := cogdiff.TestInstruction("primAdd", cogdiff.CompilerStackToRegister)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d paths, %d curated, %d differences\n", res.Paths, res.Curated, res.DifferingPaths)
	for _, d := range res.Differences {
		fmt.Printf("  DIFFERENCE [%s] %s: %s\n", d.ISA, d.Family, d.Detail)
	}

	// The float fast path is inlined by the interpreter but compiled as a
	// message send — the "optimisation difference" family of §5.3.
	fmt.Println("\n(the reported difference is the interpreter's inlined float fast path)")
}
