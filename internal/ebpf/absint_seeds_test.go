package ebpf_test

import "snapbpf/internal/ebpf"

// fuzzSeeds returns the seed corpus for FuzzAbsint: programs shaped
// to exercise the analysis features a type-only verifier lacks — dead
// branches, bounded loops, variable-offset stack accesses, map helper
// calls and 32-bit jump feasibility.
func fuzzSeeds() [][]ebpf.Instruction {
	mov := func(dst ebpf.Register, imm int32) ebpf.Instruction {
		return ebpf.Instruction{Op: ebpf.ClassALU64 | ebpf.OpMov | ebpf.SrcK, Dst: dst, Imm: imm}
	}
	movr := func(dst, src ebpf.Register) ebpf.Instruction {
		return ebpf.Instruction{Op: ebpf.ClassALU64 | ebpf.OpMov | ebpf.SrcX, Dst: dst, Src: src}
	}
	alu := func(op uint8, dst ebpf.Register, imm int32) ebpf.Instruction {
		return ebpf.Instruction{Op: ebpf.ClassALU64 | op | ebpf.SrcK, Dst: dst, Imm: imm}
	}
	alur := func(op uint8, dst, src ebpf.Register) ebpf.Instruction {
		return ebpf.Instruction{Op: ebpf.ClassALU64 | op | ebpf.SrcX, Dst: dst, Src: src}
	}
	jmp := func(op uint8, dst ebpf.Register, imm int32, off int16) ebpf.Instruction {
		return ebpf.Instruction{Op: ebpf.ClassJMP | op | ebpf.SrcK, Dst: dst, Imm: imm, Off: off}
	}
	exit := ebpf.Instruction{Op: ebpf.ClassJMP | ebpf.OpExit}

	return [][]ebpf.Instruction{
		// Trivial return.
		{mov(ebpf.R0, 7), exit},
		// Dead fall edge: r1 is forced to 3, jeq 3 always taken.
		{
			mov(ebpf.R1, 3),
			jmp(ebpf.OpJeq, ebpf.R1, 3, 2),
			mov(ebpf.R0, 1),
			exit,
			mov(ebpf.R0, 2),
			exit,
		},
		// Bounded counting loop: a back edge the analysis proves
		// terminating.
		{
			mov(ebpf.R0, 0),
			alu(ebpf.OpAdd, ebpf.R0, 1),
			jmp(ebpf.OpJlt, ebpf.R0, 10, -2),
			exit,
		},
		// Variable-offset stack store loop: r6 in [0,63], each slot
		// of the 512-byte frame written through a computed pointer.
		{
			mov(ebpf.R0, 0),
			mov(ebpf.R6, 0),
			movr(ebpf.R2, ebpf.R6),
			alu(ebpf.OpLsh, ebpf.R2, 3),
			movr(ebpf.R3, ebpf.R10),
			alu(ebpf.OpAdd, ebpf.R3, -512),
			alur(ebpf.OpAdd, ebpf.R3, ebpf.R2),
			{Op: ebpf.ClassSTX | ebpf.ModeMEM | ebpf.SizeDW, Dst: ebpf.R3, Src: ebpf.R6},
			alu(ebpf.OpAdd, ebpf.R6, 1),
			jmp(ebpf.OpJlt, ebpf.R6, 64, -8),
			movr(ebpf.R0, ebpf.R6),
			exit,
		},
		// Map update through stack pointers (helper discipline). The
		// map fd is 0: the first registered map in a fresh VM.
		{
			{Op: ebpf.ClassST | ebpf.ModeMEM | ebpf.SizeDW, Dst: ebpf.R10, Off: -8, Imm: 41},
			{Op: ebpf.ClassST | ebpf.ModeMEM | ebpf.SizeDW, Dst: ebpf.R10, Off: -16, Imm: 42},
			mov(ebpf.R1, 0),
			movr(ebpf.R2, ebpf.R10),
			alu(ebpf.OpAdd, ebpf.R2, -8),
			movr(ebpf.R3, ebpf.R10),
			alu(ebpf.OpAdd, ebpf.R3, -16),
			{Op: ebpf.ClassJMP | ebpf.OpCall, Imm: ebpf.HelperMapUpdateElem},
			mov(ebpf.R0, 0),
			exit,
		},
		// JMP32 feasibility: the low word of a wide constant decides.
		{
			{Op: ebpf.OpLdImm64, Dst: ebpf.R1, Imm: 5},
			{Op: 0, Imm: 1},
			{Op: ebpf.ClassJMP32 | ebpf.OpJeq | ebpf.SrcK, Dst: ebpf.R1, Imm: 5, Off: 2},
			mov(ebpf.R0, 0),
			exit,
			mov(ebpf.R0, 1),
			exit,
		},
		// JSET single-bit refinement.
		{
			mov(ebpf.R1, 6),
			jmp(ebpf.OpJset, ebpf.R1, 2, 2),
			mov(ebpf.R0, 0),
			exit,
			mov(ebpf.R0, 1),
			exit,
		},
	}
}
