package absint

import "fmt"

// Mirrored ISA encoding. This package is a leaf — internal/ebpf
// consumes it from the verifier, so it cannot import the
// instruction definitions back. The constants below are byte-for-byte
// the Linux eBPF encoding used by internal/ebpf/isa.go and are pinned
// against it by TestAbsintConstsMatch on the other side.
const (
	ClassLD    = 0x00
	ClassLDX   = 0x01
	ClassST    = 0x02
	ClassSTX   = 0x03
	ClassALU   = 0x04
	ClassJMP   = 0x05
	ClassJMP32 = 0x06
	ClassALU64 = 0x07
)

const (
	SizeW  = 0x00
	SizeH  = 0x08
	SizeB  = 0x10
	SizeDW = 0x18
)

const (
	ModeIMM = 0x00
	ModeMEM = 0x60
)

const (
	SrcK = 0x00
	SrcX = 0x08
)

const (
	OpAdd  = 0x00
	OpSub  = 0x10
	OpMul  = 0x20
	OpDiv  = 0x30
	OpOr   = 0x40
	OpAnd  = 0x50
	OpLsh  = 0x60
	OpRsh  = 0x70
	OpNeg  = 0x80
	OpMod  = 0x90
	OpXor  = 0xa0
	OpMov  = 0xb0
	OpArsh = 0xc0
)

const (
	OpJa   = 0x00
	OpJeq  = 0x10
	OpJgt  = 0x20
	OpJge  = 0x30
	OpJset = 0x40
	OpJne  = 0x50
	OpJsgt = 0x60
	OpJsge = 0x70
	OpCall = 0x80
	OpExit = 0x90
	OpJlt  = 0xa0
	OpJle  = 0xb0
	OpJslt = 0xc0
	OpJsle = 0xd0
)

// OpLdImm64 is the two-slot 64-bit immediate load (LD|IMM|DW).
const OpLdImm64 = ClassLD | ModeIMM | SizeDW

const (
	// NumRegisters is the register-file size (R0–R10).
	NumRegisters = 11
	// RegFP is the frame pointer, R10.
	RegFP = 10
	// StackSize is the per-program stack frame in bytes.
	StackSize = 512
	// MaxProgramLen caps the instruction count, as in internal/ebpf.
	MaxProgramLen = 4096
)

// poisonConst is the value the interpreter clobbers R1–R5 with after
// a helper call.
const poisonConst uint64 = 0xdead_beef_dead_beef

// Insn is one raw eBPF instruction, field-for-field the layout of
// internal/ebpf.Instruction.
type Insn struct {
	Op  uint8
	Dst uint8
	Src uint8
	Off int16
	Imm int32
}

func (in Insn) class() uint8     { return in.Op & 0x07 }
func (in Insn) aluOp() uint8     { return in.Op & 0xf0 }
func (in Insn) usesRegSrc() bool { return in.Op&0x08 != 0 }

func (in Insn) size() int {
	switch in.Op & 0x18 {
	case SizeW:
		return 4
	case SizeH:
		return 2
	case SizeB:
		return 1
	case SizeDW:
		return 8
	}
	return 0
}

func (in Insn) String() string {
	return fmt.Sprintf("op=%#02x dst=r%d src=r%d off=%d imm=%d",
		in.Op, in.Dst, in.Src, in.Off, in.Imm)
}
