package ebpf

import (
	"strings"
	"testing"
)

func verify(t *testing.T, build func(b *Builder)) error {
	t.Helper()
	b := NewBuilder()
	build(b)
	insns, err := b.Program()
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return Verify(insns, NewVM())
}

func wantReject(t *testing.T, substr string, build func(b *Builder)) {
	t.Helper()
	err := verify(t, build)
	if err == nil {
		t.Fatalf("verifier accepted invalid program (want %q)", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not contain %q", err, substr)
	}
}

func TestVerifyEmptyProgram(t *testing.T) {
	if err := Verify(nil, NewVM()); err == nil {
		t.Fatal("empty program accepted")
	}
}

func TestVerifyTooLong(t *testing.T) {
	insns := make([]Instruction, MaxProgramLen+1)
	for i := range insns {
		insns[i] = Instruction{Op: ClassALU64 | OpMov | SrcK, Dst: R0}
	}
	insns[len(insns)-1] = Instruction{Op: ClassJMP | OpExit}
	if err := Verify(insns, NewVM()); err == nil {
		t.Fatal("overlong program accepted")
	}
}

func TestVerifyUninitializedRead(t *testing.T) {
	wantReject(t, "uninitialized", func(b *Builder) {
		b.Mov64Reg(R0, R6).Exit() // R6 never written
	})
}

func TestVerifyUninitR0AtExit(t *testing.T) {
	wantReject(t, "R0 not initialized", func(b *Builder) {
		b.Mov64Imm(R6, 1).Exit()
	})
}

func TestVerifyR10ReadOnly(t *testing.T) {
	wantReject(t, "read-only", func(b *Builder) {
		b.Mov64Imm(R10, 0).Mov64Imm(R0, 0).Exit()
	})
}

func TestVerifyFallOffEnd(t *testing.T) {
	err := Verify([]Instruction{
		{Op: ClassALU64 | OpMov | SrcK, Dst: R0, Imm: 1},
	}, NewVM())
	if err == nil || !strings.Contains(err.Error(), "falls off") {
		t.Fatalf("err = %v, want falls-off", err)
	}
}

func TestVerifyBoundedLoopAccepted(t *testing.T) {
	// r0 = sum(1..r1) via a backward conditional jump: the dataflow
	// verifier must reach a fixpoint and accept the loop.
	insns := []Instruction{
		{Op: ClassALU64 | OpMov | SrcK, Dst: R0, Imm: 0},        // r0 = 0
		{Op: ClassALU64 | OpMov | SrcK, Dst: R2, Imm: 0},        // i = 0
		{Op: ClassJMP | OpJge | SrcX, Dst: R2, Src: R1, Off: 3}, // loop: if i >= n goto end
		{Op: ClassALU64 | OpAdd | SrcK, Dst: R2, Imm: 1},        // i++
		{Op: ClassALU64 | OpAdd | SrcX, Dst: R0, Src: R2},       // r0 += i
		{Op: ClassJMP | OpJa, Off: -4},                          // goto loop
		{Op: ClassJMP | OpExit},                                 // end
	}
	vm := NewVM()
	prog, err := vm.Load("loop", insns)
	if err != nil {
		t.Fatalf("bounded loop rejected: %v", err)
	}
	got, err := prog.Run(nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != 55 {
		t.Fatalf("sum(1..10) = %d, want 55", got)
	}
}

func TestVerifyLoopWithUninitUseRejected(t *testing.T) {
	// A register initialized only on the looping path must still be
	// rejected when read after the loop exit path skips it.
	insns := []Instruction{
		{Op: ClassJMP | OpJeq | SrcK, Dst: R1, Imm: 0, Off: 1}, // if r1==0 skip init
		{Op: ClassALU64 | OpMov | SrcK, Dst: R6, Imm: 7},       // r6 = 7
		{Op: ClassALU64 | OpMov | SrcX, Dst: R0, Src: R6},      // r0 = r6 (maybe uninit)
		{Op: ClassJMP | OpExit},
	}
	if err := Verify(insns, NewVM()); err == nil || !strings.Contains(err.Error(), "uninitialized") {
		t.Fatalf("err = %v, want uninitialized-read rejection", err)
	}
}

func TestVerifyJoinDemotesPointer(t *testing.T) {
	// One path leaves a stack pointer in r6, the other a scalar; after
	// the merge r6 must not be dereferenceable.
	insns := []Instruction{
		{Op: ClassALU64 | OpMov | SrcX, Dst: R6, Src: R10},           // r6 = fp
		{Op: ClassJMP | OpJeq | SrcK, Dst: R1, Imm: 0, Off: 1},       // if r1==0 skip
		{Op: ClassALU64 | OpMov | SrcK, Dst: R6, Imm: 5},             // r6 = 5 (scalar)
		{Op: ClassLDX | ModeMEM | SizeDW, Dst: R0, Src: R6, Off: -8}, // *(r6-8)
		{Op: ClassJMP | OpExit},
	}
	if err := Verify(insns, NewVM()); err == nil || !strings.Contains(err.Error(), "scalar") {
		t.Fatalf("err = %v, want scalar-deref rejection at merge", err)
	}
}

func TestVerifyJumpOutOfBounds(t *testing.T) {
	insns := []Instruction{
		{Op: ClassALU64 | OpMov | SrcK, Dst: R0, Imm: 0},
		{Op: ClassJMP | OpJa, Off: 100},
		{Op: ClassJMP | OpExit},
	}
	if err := Verify(insns, NewVM()); err == nil {
		t.Fatal("out-of-bounds jump accepted")
	}
}

func TestVerifyStackOutOfBounds(t *testing.T) {
	wantReject(t, "not provably in frame", func(b *Builder) {
		b.Mov64Imm(R2, 1).StxDW(R10, -520, R2).Mov64Imm(R0, 0).Exit()
	})
	wantReject(t, "not provably in frame", func(b *Builder) {
		b.Mov64Imm(R2, 1).StxDW(R10, 0, R2).Mov64Imm(R0, 0).Exit() // [fp, fp+8) above frame
	})
}

func TestVerifyStackEdgeOK(t *testing.T) {
	if err := verify(t, func(b *Builder) {
		b.Mov64Imm(R2, 1).
			StxDW(R10, -512, R2). // lowest slot
			StxDW(R10, -8, R2).   // highest slot
			Mov64Imm(R0, 0).Exit()
	}); err != nil {
		t.Fatalf("edge accesses rejected: %v", err)
	}
}

func TestVerifyDerefScalarRejected(t *testing.T) {
	wantReject(t, "scalar", func(b *Builder) {
		b.Mov64Imm(R2, 0x1000).LdxDW(R0, R2, 0).Exit()
	})
}

func TestVerifyDerefUninitRejected(t *testing.T) {
	wantReject(t, "uninitialized", func(b *Builder) {
		b.LdxDW(R0, R6, 0).Exit()
	})
}

func TestVerifyPointerArithmeticTracked(t *testing.T) {
	// fp-256 via a copy + offset, then in-bounds store: OK.
	if err := verify(t, func(b *Builder) {
		b.Mov64Reg(R6, R10).Add64Imm(R6, -256).
			Mov64Imm(R2, 5).StxDW(R6, 0, R2).
			Mov64Imm(R0, 0).Exit()
	}); err != nil {
		t.Fatalf("valid pointer arithmetic rejected: %v", err)
	}
	// fp+8: out of frame even through a copy.
	wantReject(t, "not provably in frame", func(b *Builder) {
		b.Mov64Reg(R6, R10).Add64Imm(R6, 8).
			Mov64Imm(R2, 5).StxDW(R6, 0, R2).
			Mov64Imm(R0, 0).Exit()
	})
}

func TestVerifyDivByZeroImmediate(t *testing.T) {
	wantReject(t, "division by zero", func(b *Builder) {
		b.Mov64Imm(R0, 10).Div64Imm(R0, 0).Exit()
	})
	wantReject(t, "division by zero", func(b *Builder) {
		b.Mov64Imm(R0, 10).Mod64Imm(R0, 0).Exit()
	})
}

func TestVerifyUnknownHelper(t *testing.T) {
	wantReject(t, "unknown helper", func(b *Builder) {
		b.Mov64Imm(R1, 0).Call(0x7fff).Exit()
	})
}

func TestVerifyCallClobbersArgRegs(t *testing.T) {
	wantReject(t, "uninitialized", func(b *Builder) {
		b.Mov64Imm(R1, 1).
			Call(HelperKtimeGetNS).
			Mov64Reg(R0, R2). // R2 dead after call
			Exit()
	})
}

func TestVerifyCallSetsR0(t *testing.T) {
	if err := verify(t, func(b *Builder) {
		b.Call(HelperKtimeGetNS).Exit() // R0 = helper result
	}); err != nil {
		t.Fatalf("call-then-exit rejected: %v", err)
	}
}

func TestVerifyBothBranchesChecked(t *testing.T) {
	// Taken branch reads uninitialized R7 — must be caught even though
	// the fall-through is fine.
	wantReject(t, "uninitialized", func(b *Builder) {
		b.Mov64Imm(R0, 0).
			JmpImm(OpJeq, R1, 0, "bad").
			Exit().
			Label("bad").
			Mov64Reg(R0, R7).
			Exit()
	})
}

func TestVerifyTruncatedLdImm64(t *testing.T) {
	insns := []Instruction{
		{Op: OpLdImm64, Dst: R0, Imm: 1},
	}
	if err := Verify(insns, NewVM()); err == nil {
		t.Fatal("truncated lddw accepted")
	}
}

func TestVerifyLdImm64SecondSlotChecked(t *testing.T) {
	insns := []Instruction{
		{Op: OpLdImm64, Dst: R0, Imm: 1},
		{Op: ClassJMP | OpExit}, // not a valid second slot
		{Op: ClassJMP | OpExit},
	}
	if err := Verify(insns, NewVM()); err == nil {
		t.Fatal("bad lddw second slot accepted")
	}
}

func TestVerify32BitOpTruncatesPointer(t *testing.T) {
	// A 32-bit op on a stack pointer demotes it to scalar; deref then fails.
	wantReject(t, "scalar", func(b *Builder) {
		b.Mov64Reg(R6, R10).
			Raw(Instruction{Op: ClassALU | OpAdd | SrcK, Dst: R6, Imm: 0}).
			LdxDW(R0, R6, -8).
			Exit()
	})
}

func TestVerifyStoreUninitRejected(t *testing.T) {
	wantReject(t, "uninitialized", func(b *Builder) {
		b.StxDW(R10, -8, R7).Mov64Imm(R0, 0).Exit()
	})
}

func TestVerifyAcceptsRealisticProgram(t *testing.T) {
	// Shape of the SnapBPF capture program: filter + map update.
	vm := NewVM()
	m := MustNewMap(MapTypeHash, "ws", 1024)
	fd := vm.RegisterMap(m)
	b := NewBuilder()
	b.JmpImm(OpJeq, R1, 42, "match").
		Mov64Imm(R0, 0).
		Exit().
		Label("match").
		StxDW(R10, -8, R2).
		Call(HelperKtimeGetNS).
		StxDW(R10, -16, R0).
		Mov64Imm(R1, fd).
		Mov64Reg(R2, R10).Add64Imm(R2, -8).
		Mov64Reg(R3, R10).Add64Imm(R3, -16).
		Call(HelperMapUpdateElem).
		Mov64Imm(R0, 0).
		Exit()
	if _, err := vm.Load("capture-shape", b.MustProgram()); err != nil {
		t.Fatalf("realistic program rejected: %v", err)
	}
}

func TestVerifyErrorIncludesPC(t *testing.T) {
	err := verify(t, func(b *Builder) {
		b.Mov64Imm(R0, 0).Mov64Reg(R0, R9).Exit()
	})
	ve, ok := err.(*VerifyError)
	if !ok {
		t.Fatalf("error type %T, want *VerifyError", err)
	}
	if ve.PC != 1 {
		t.Fatalf("PC = %d, want 1", ve.PC)
	}
}
