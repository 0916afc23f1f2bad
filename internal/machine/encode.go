package machine

import (
	"encoding/binary"
	"fmt"

	"cogdiff/internal/ir"
)

// ISA identifies a target instruction-set encoding. The simulated CPU
// executes decoded instructions; the encoders exist so each back-end
// produces genuine machine-code bytes in its own format (variable-length
// for the x86-style target, fixed-width for the ARM32-style target), which
// the disassembler and the cross-ISA tests exercise.
type ISA int

const (
	// ISAAmd64Like uses variable-length encoding: 1 opcode byte, 1
	// register byte, and an immediate only when the instruction needs one
	// (1 or 8 bytes depending on range).
	ISAAmd64Like ISA = iota
	// ISAArm32Like uses fixed 8-byte instructions with a 32-bit immediate
	// field; immediates outside 32 bits are unencodable.
	ISAArm32Like
)

func (i ISA) String() string {
	if i == ISAAmd64Like {
		return "amd64-like"
	}
	return "arm32-like"
}

// needsImm reports whether the opcode carries an immediate operand.
func needsImm(op ir.Opc) bool {
	switch op {
	case ir.OpcMovI, ir.OpcLoad, ir.OpcStore, ir.OpcAddI, ir.OpcSubI,
		ir.OpcAndI, ir.OpcOrI, ir.OpcShlI, ir.OpcSarI, ir.OpcCmpI,
		ir.OpcJmp, ir.OpcJeq, ir.OpcJne, ir.OpcJlt, ir.OpcJle, ir.OpcJgt,
		ir.OpcJge, ir.OpcCall, ir.OpcBrk:
		return true
	}
	return false
}

// Encode serializes a program in the given ISA's byte format.
func Encode(p *Program, isa ISA) ([]byte, error) {
	out := make([]byte, 0, encodedSize(p, isa))
	for _, ins := range p.Instrs {
		regs := byte(ins.Rd)<<4 | byte(ins.Rs1)
		switch isa {
		case ISAAmd64Like:
			out = append(out, byte(ins.Op), regs, byte(ins.Rs2))
			if needsImm(ins.Op) {
				if ins.Imm >= -128 && ins.Imm <= 127 {
					out = append(out, 1, byte(int8(ins.Imm)))
				} else {
					var buf [8]byte
					binary.LittleEndian.PutUint64(buf[:], uint64(ins.Imm))
					out = append(out, 8)
					out = append(out, buf[:]...)
				}
			}
		case ISAArm32Like:
			if ins.Imm < -(1<<31) || ins.Imm >= 1<<31 {
				return nil, fmt.Errorf("machine: immediate %d unencodable on %s", ins.Imm, isa)
			}
			var buf [8]byte
			buf[0] = byte(ins.Op)
			buf[1] = regs
			buf[2] = byte(ins.Rs2)
			binary.LittleEndian.PutUint32(buf[4:], uint32(int32(ins.Imm)))
			out = append(out, buf[:]...)
		default:
			return nil, fmt.Errorf("machine: unknown ISA %d", isa)
		}
	}
	return out, nil
}

// encodedSize is the exact length of p's encoding on isa, so Encode
// allocates its output once.
func encodedSize(p *Program, isa ISA) int {
	if isa != ISAAmd64Like {
		return 8 * len(p.Instrs)
	}
	n := 0
	for _, ins := range p.Instrs {
		n += 3
		switch {
		case !needsImm(ins.Op):
		case ins.Imm >= -128 && ins.Imm <= 127:
			n += 2
		default:
			n += 9
		}
	}
	return n
}

// Decode deserializes machine code back into a program: the inverse of
// Encode, which the encoder's round-trip test checks.
func Decode(code []byte, base int64, isa ISA) (*Program, error) {
	var instrs []Instr
	i := 0
	for i < len(code) {
		var ins Instr
		switch isa {
		case ISAAmd64Like:
			if i+3 > len(code) {
				return nil, fmt.Errorf("machine: truncated instruction at %d", i)
			}
			ins.Op = ir.Opc(code[i])
			ins.Rd = Reg(code[i+1] >> 4)
			ins.Rs1 = Reg(code[i+1] & 0xF)
			ins.Rs2 = Reg(code[i+2])
			i += 3
			if needsImm(ins.Op) {
				if i >= len(code) {
					return nil, fmt.Errorf("machine: truncated immediate at %d", i)
				}
				width := int(code[i])
				i++
				switch width {
				case 1:
					ins.Imm = int64(int8(code[i]))
					i++
				case 8:
					if i+8 > len(code) {
						return nil, fmt.Errorf("machine: truncated immediate at %d", i)
					}
					ins.Imm = int64(binary.LittleEndian.Uint64(code[i:]))
					i += 8
				default:
					return nil, fmt.Errorf("machine: bad immediate width %d at %d", width, i)
				}
			}
		case ISAArm32Like:
			if i+8 > len(code) {
				return nil, fmt.Errorf("machine: truncated instruction at %d", i)
			}
			ins.Op = ir.Opc(code[i])
			ins.Rd = Reg(code[i+1] >> 4)
			ins.Rs1 = Reg(code[i+1] & 0xF)
			ins.Rs2 = Reg(code[i+2])
			ins.Imm = int64(int32(binary.LittleEndian.Uint32(code[i+4:])))
			i += 8
		default:
			return nil, fmt.Errorf("machine: unknown ISA %d", isa)
		}
		if ins.Op >= ir.NumMachineOpcs {
			return nil, fmt.Errorf("machine: illegal opcode %d", ins.Op)
		}
		instrs = append(instrs, ins)
	}
	return &Program{Base: base, Instrs: instrs}, nil
}
