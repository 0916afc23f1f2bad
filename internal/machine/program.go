package machine

import "fmt"

// Program is an assembled machine-code method. It is immutable once
// assembled, so one program may run on any number of CPUs at once.
type Program struct {
	Base   int64
	Instrs []Instr
}

// At returns the instruction at an absolute address.
func (p *Program) At(addr int64) (Instr, bool) {
	idx := addr - p.Base
	if idx < 0 || idx >= int64(len(p.Instrs)) {
		return Instr{}, false
	}
	return p.Instrs[idx], true
}

// Disassemble renders the program.
func (p *Program) Disassemble() string {
	s := ""
	for i, ins := range p.Instrs {
		s += fmt.Sprintf("%#6x: %s\n", uint64(p.Base+int64(i)), ins)
	}
	return s
}

// Len returns the instruction count.
func (p *Program) Len() int { return len(p.Instrs) }
