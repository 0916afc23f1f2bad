// Sequences demonstrates the extension the paper lists as future work:
// differential testing of whole byte-code *sequences*. The sequence
// tester runs synthesized methods both on the interpreter, stepping it
// instruction by instruction, and as whole-method machine code, and
// compares the behaviours at the first boundary — method return or
// message send.
//
//	go run ./examples/sequences
package main

import (
	"fmt"
	"log"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/core"
	"cogdiff/internal/defects"
	"cogdiff/internal/machine"
	"cogdiff/internal/primitives"
)

func main() {
	// A small library of methods, written in byte-code.
	maxM := bytecode.NewBuilder("max:", 1).
		PushReceiver().PushTemp(0).Op(bytecode.OpPrimGreaterThan).
		JumpIfTrue("self").
		PushTemp(0).ReturnTop().
		Label("self").
		PushReceiver().ReturnTop().
		MustMethod()

	polyM := bytecode.NewBuilder("poly", 0). // ^(self + 3) * (self - 1)
							PushReceiver().PushLiteral(bytecode.IntLiteral(3)).Add().
							PushReceiver().PushInt(1).Subtract().
							Multiply().ReturnTop().
							MustMethod()

	fibM := bytecode.NewBuilder("fib", 0). // recursive fibonacci
						PushReceiver().PushInt(2).LessThan().
						JumpIfFalse("rec").
						PushReceiver().ReturnTop().
						Label("rec").
						PushReceiver().PushInt(1).Subtract().Send("fib", 0).
						PushReceiver().PushInt(2).Subtract().Send("fib", 0).
						Add().ReturnTop().
						MustMethod()

	// Differential sequence testing across the three byte-code compilers
	// and both ISAs.
	tester := core.NewTester(primitives.NewTable(), defects.ProductionVM())
	cases := []struct {
		m  *bytecode.Method
		in core.SequenceInput
	}{
		{maxM, core.SequenceInput{Receiver: core.Int64(3), Args: []core.SeqValue{core.Int64(5)}}},
		{maxM, core.SequenceInput{Receiver: core.Int64(9), Args: []core.SeqValue{core.Int64(-2)}}},
		{polyM, core.SequenceInput{Receiver: core.Int64(7)}},
		{fibM, core.SequenceInput{Receiver: core.Int64(10)}}, // compared at the first #fib send
	}
	kinds := []core.CompilerKind{core.SimpleBytecodeCompiler, core.StackToRegisterCompiler, core.RegisterAllocatingCompiler}
	for _, cse := range cases {
		for _, kind := range kinds {
			for _, isa := range []machine.ISA{machine.ISAAmd64Like, machine.ISAArm32Like} {
				verdict, err := tester.TestSequence(cse.m, cse.in, kind, isa)
				if err != nil {
					log.Fatal(err)
				}
				status := "AGREE "
				if verdict.Differs {
					status = "DIFFER"
				}
				fmt.Printf("%s %-12s %-35s %-12s -> %s\n", status, cse.m.Name, kind, isa, verdict.Interp)
			}
		}
	}
}
