package ir

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestBuilderFinishValidatesLabels(t *testing.T) {
	for name, build := range map[string]func(b *Builder){
		`undefined label "nowhere"`: func(b *Builder) { b.Jump(OpcJmp, b.AddLabel(Named("nowhere"))) },
		`duplicate label "twice"`: func(b *Builder) {
			twice := b.AddLabel(Named("twice"))
			b.Label(twice).Label(twice)
		},
		// IDs the builder did not make: none, and past its table.
		`undefined label "L0"`: func(b *Builder) { b.Jump(OpcJmp, 0) },
		`undefined label "L2"`: func(b *Builder) { b.Label(b.NewLabel("l")).Jump(OpcJmp, 2) },
		`undefined label "L5"`: func(b *Builder) { b.Label(5) },
	} {
		b := NewBuilder()
		build(b)
		b.Ret()
		if _, err := b.Finish(); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("want Finish to fail with %s, got %v", name, err)
		}
	}

	b := NewBuilder()
	ok := b.NewLabel("ok")
	b.Label(ok)
	b.Jump(OpcJeq, ok)
	b.Ret()
	fn, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(fn.Instrs); got != 3 {
		t.Fatalf("got %d instructions, want 3 (label + jump + ret)", got)
	}
}

func TestVirtualRegisters(t *testing.T) {
	v3 := V(3)
	if !v3.IsVirtual() || v3.VirtualIndex() != 3 {
		t.Fatalf("V(3) = %s: IsVirtual %v, index %d", v3, v3.IsVirtual(), v3.VirtualIndex())
	}
	if v3.String() != "v3" {
		t.Fatalf("V(3).String() = %q", v3.String())
	}
	if TempReg.IsVirtual() || SP.IsVirtual() {
		t.Fatal("physical registers must not be virtual")
	}
}

func mustFinish(t *testing.T, b *Builder) *Fn {
	t.Helper()
	fn, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

func TestConstFoldReplacesWithoutDeleting(t *testing.T) {
	b := NewBuilder()
	b.MovI(V(0), 7)
	b.MovI(V(1), 5)
	b.Bin(OpcSub, V(2), V(0), V(1))
	b.BinI(OpcAddI, V(3), V(2), 10)
	b.Ret()
	fn := mustFinish(t, b)

	out := ConstFold(false).Run(fn)
	if len(out.Instrs) != len(fn.Instrs) {
		t.Fatalf("constfold changed the instruction count: %d -> %d", len(fn.Instrs), len(out.Instrs))
	}
	if ins := out.Instrs[2]; ins.Op != OpcMovI || ins.Imm != 2 {
		t.Fatalf("sub fold: got %s, want movi v2, 2", ins)
	}
	if ins := out.Instrs[3]; ins.Op != OpcMovI || ins.Imm != 12 {
		t.Fatalf("addi fold: got %s, want movi v3, 12", ins)
	}

	// The sign-error defect folds subtraction as addition.
	bad := ConstFold(true).Run(fn)
	if ins := bad.Instrs[2]; ins.Op != OpcMovI || ins.Imm != 12 {
		t.Fatalf("sign-error sub fold: got %s, want movi v2, 12", ins)
	}
}

func TestConstFoldBarriers(t *testing.T) {
	// Labels and calls must forget all known constants; Div never folds.
	b := NewBuilder()
	b.MovI(V(0), 8)
	b.Label(b.NewLabel("join"))
	b.BinI(OpcAddI, V(1), V(0), 1) // v0 unknown after the label
	b.Ret()
	fn := mustFinish(t, b)
	out := ConstFold(false).Run(fn)
	if out.Instrs[2].Op != OpcAddI {
		t.Fatalf("fold across a label: got %s", out.Instrs[2])
	}

	b = NewBuilder()
	b.MovI(V(0), 8)
	b.Call(0x10)
	b.BinI(OpcAddI, V(1), V(0), 1) // call clobbered the register file
	b.Ret()
	out = ConstFold(false).Run(mustFinish(t, b))
	if out.Instrs[2].Op != OpcAddI {
		t.Fatalf("fold across a call: got %s", out.Instrs[2])
	}

	b = NewBuilder()
	b.MovI(V(0), 8)
	b.MovI(V(1), 0)
	b.Bin(OpcDiv, V(2), V(0), V(1)) // must fault at run time, never fold
	b.Ret()
	out = ConstFold(false).Run(mustFinish(t, b))
	if out.Instrs[2].Op != OpcDiv {
		t.Fatalf("div folded: got %s", out.Instrs[2])
	}
}

func TestConstFoldShiftMasking(t *testing.T) {
	b := NewBuilder()
	b.MovI(V(0), 1)
	b.MovI(V(1), 65) // 65 & 63 == 1
	b.Bin(OpcShl, V(2), V(0), V(1))
	b.Ret()
	out := ConstFold(false).Run(mustFinish(t, b))
	if ins := out.Instrs[2]; ins.Op != OpcMovI || ins.Imm != 2 {
		t.Fatalf("shift fold must mask the count to 6 bits: got %s", ins)
	}
}

func TestDeadPushPop(t *testing.T) {
	b := NewBuilder()
	b.Push(V(0))
	b.Pop(V(1)) // becomes movr v1, v0
	b.Push(V(2))
	b.Pop(V(2)) // same register: disappears entirely
	b.Push(V(3))
	b.BinI(OpcAddI, SP, SP, 1) // dropTop: push + drop disappears
	b.Ret()
	out := DeadPushPop().Run(mustFinish(t, b))
	if len(out.Instrs) != 2 {
		t.Fatalf("got %d instructions, want movr + ret:\n%s", len(out.Instrs), out)
	}
	if ins := out.Instrs[0]; ins.Op != OpcMovR || ins.Rd != V(1) || ins.Rs1 != V(0) {
		t.Fatalf("got %s, want movr v1, v0", ins)
	}
}

func TestDeadPushPopStopsAtLabels(t *testing.T) {
	// A label between push and pop is a control-flow join: no rewrite.
	b := NewBuilder()
	b.Push(V(0))
	b.Label(b.NewLabel("join"))
	b.Pop(V(1))
	b.Ret()
	out := DeadPushPop().Run(mustFinish(t, b))
	if out.Instrs[0].Op != OpcPush {
		t.Fatalf("push/pop fused across a label:\n%s", out)
	}
}

func TestDeadPushPopFixpoint(t *testing.T) {
	// Removing the inner pair exposes the outer one.
	b := NewBuilder()
	b.Push(V(0))
	b.Push(V(1))
	b.Pop(V(1))
	b.Pop(V(2))
	b.Ret()
	out := DeadPushPop().Run(mustFinish(t, b))
	if len(out.Instrs) != 2 || out.Instrs[0].Op != OpcMovR {
		t.Fatalf("fixpoint missed the exposed pair:\n%s", out)
	}
}

func TestPeephole(t *testing.T) {
	b := NewBuilder()
	b.MovR(V(0), V(0))             // self move: deleted
	b.BinI(OpcAddI, V(1), V(1), 0) // identity: deleted
	b.BinI(OpcAndI, V(2), V(2), 0) // AndI zero CLEARS: kept
	next := b.NewLabel("next")
	b.Jump(OpcJmp, next) // jump to next label: deleted
	b.Label(next)
	b.Ret()
	out := Peephole(false).Run(mustFinish(t, b))
	if len(out.Instrs) != 3 {
		t.Fatalf("got %d instructions, want andi + label + ret:\n%s", len(out.Instrs), out)
	}
	if out.Instrs[0].Op != OpcAndI {
		t.Fatalf("andi v, v, 0 is not an identity and must survive:\n%s", out)
	}
}

// TestPassesArePure pins the pass contract the pipeline's stage record
// rests on: a pass never writes its input, returns that very input when
// no rewrite applies, and a new function otherwise.
func TestPassesArePure(t *testing.T) {
	for _, c := range []struct {
		pass          Pass
		applies, idle func(*Builder)
	}{
		{ConstFold(false),
			func(b *Builder) { b.MovI(V(0), 1); b.MovI(V(1), 2); b.Bin(OpcAdd, V(2), V(0), V(1)) },
			func(b *Builder) { b.Load(V(0), FP, 1); b.BinI(OpcAddI, V(1), V(0), 1) }},
		{ConstFold(true),
			func(b *Builder) { b.MovI(V(0), 1); b.BinI(OpcSubI, V(1), V(0), 1) },
			func(b *Builder) { b.MovI(V(0), 1); b.Label(b.NewLabel("join")); b.BinI(OpcSubI, V(1), V(0), 1) }},
		{DeadPushPop(),
			func(b *Builder) { b.Push(V(0)); b.Pop(V(1)) },
			func(b *Builder) { b.Push(V(0)); b.MovI(V(1), 2); b.Pop(V(1)) }},
		{Peephole(false),
			func(b *Builder) { b.MovR(V(0), V(1)); b.MovR(V(2), V(2)) },
			func(b *Builder) { b.MovR(V(0), V(1)); b.BinI(OpcAndI, V(2), V(2), 0) }},
		{Peephole(true),
			func(b *Builder) { b.Push(V(0)); b.Pop(V(1)) },
			func(b *Builder) { b.Push(V(0)); b.MovR(V(1), V(0)) }},
	} {
		for _, applies := range []bool{false, true} {
			b := NewBuilder()
			if applies {
				c.applies(b)
			} else {
				c.idle(b)
			}
			b.Ret()
			fn := mustFinish(t, b)
			before := slices.Clone(fn.Instrs)
			out := c.pass.Run(fn)
			if !slices.Equal(fn.Instrs, before) {
				t.Fatalf("pass %s mutated its input", c.pass.Name)
			}
			switch {
			case !applies && out != fn:
				t.Errorf("pass %s changed nothing but did not return its input", c.pass.Name)
			case applies && out == fn:
				t.Errorf("pass %s rewrote its input in place", c.pass.Name)
			case applies && !sameTable(out.Labels, fn.Labels):
				t.Errorf("pass %s did not share its input's label table", c.pass.Name)
			case applies && slices.Equal(out.Instrs, fn.Instrs):
				t.Errorf("pass %s returned a new function that changes nothing", c.pass.Name)
			}
		}
	}
}

// sameTable reports whether two label tables are one slice.
func sameTable(a, b []LabelName) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

func TestFnStringFormatsLabels(t *testing.T) {
	b := NewBuilder()
	top := b.AddLabel(Named("top"))
	b.Label(top)
	b.CmpI(V(0), 7)
	b.Jump(OpcJne, top)
	b.Ret()
	fn := mustFinish(t, b)
	s := fn.String()
	for _, want := range []string{"top:", "\tcmpi v0, 7", "\tjne top"} {
		if !strings.Contains(s, want) {
			t.Errorf("Fn.String() missing %q:\n%s", want, s)
		}
	}
	// A label outside the table prints as its ID.
	fn.Instrs = append(fn.Instrs, Instr{Op: OpcJmp, Label: 9})
	if s := fn.String(); !strings.Contains(s, "\tjmp L9\n") {
		t.Errorf("an ID outside the table must print as L9:\n%s", s)
	}
}

// TestLabelNames pins every form a label name takes, and the builder's
// numbering: NewLabel numbers its own calls from 1, whatever AddLabel
// made in between.
func TestLabelNames(t *testing.T) {
	for want, name := range map[string]LabelName{
		"fallthrough": Named("fallthrough"),
		"bc_0":        Numbered("bc", 0),
		"bc_12":       Numbered("bc", 12),
		"bc_-3":       Numbered("bc", -3),
		"path_2":      Numbered("path", 2),
		"bc3_path_2":  Scoped("bc", 3, "path", 2),
	} {
		if got := name.String(); got != want {
			t.Errorf("got %q, want %q", got, want)
		}
	}
	b := NewBuilder()
	slow := b.NewLabel("slow")
	taken := b.AddLabel(Named("jumpTaken"))
	after := b.NewLabel("after")
	b.Label(slow).Label(taken).Label(after).Ret()
	fn := mustFinish(t, b)
	for l, want := range map[Label]string{slow: "slow_1", taken: "jumpTaken", after: "after_2", 0: "L0", 4: "L4"} {
		if got := fn.LabelName(l); got != want {
			t.Errorf("label %d: got %q, want %q", l, got, want)
		}
	}
}

// TestInstrIsPointerFree pins the instruction layout the compile layer's
// speed rests on: sixteen bytes, and no field the garbage collector
// scans.
func TestInstrIsPointerFree(t *testing.T) {
	typ := reflect.TypeOf(Instr{})
	if typ.Size() != 16 {
		t.Errorf("ir.Instr is %d bytes, want 16", typ.Size())
	}
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Uint8, reflect.Int32, reflect.Int64:
		default:
			t.Errorf("ir.Instr field %s is a %s; every field must be a plain integer", f.Name, f.Type)
		}
	}
}
