package ebpf

import (
	"strings"
	"testing"

	"snapbpf/internal/ebpf/absint"
)

// The abstract interpreter mirrors this package's ISA encoding and
// machine limits in its own constant set (it cannot import ebpf — the
// dependency points the other way). This test pins the mirror: a
// drift in either package fails loudly instead of silently analyzing
// a different machine.
func TestAbsintConstsMatch(t *testing.T) {
	pairs := []struct {
		name       string
		ebpf, abst int64
	}{
		{"ClassLD", int64(ClassLD), int64(absint.ClassLD)},
		{"ClassLDX", int64(ClassLDX), int64(absint.ClassLDX)},
		{"ClassST", int64(ClassST), int64(absint.ClassST)},
		{"ClassSTX", int64(ClassSTX), int64(absint.ClassSTX)},
		{"ClassALU", int64(ClassALU), int64(absint.ClassALU)},
		{"ClassJMP", int64(ClassJMP), int64(absint.ClassJMP)},
		{"ClassJMP32", int64(ClassJMP32), int64(absint.ClassJMP32)},
		{"ClassALU64", int64(ClassALU64), int64(absint.ClassALU64)},
		{"SizeW", int64(SizeW), int64(absint.SizeW)},
		{"SizeH", int64(SizeH), int64(absint.SizeH)},
		{"SizeB", int64(SizeB), int64(absint.SizeB)},
		{"SizeDW", int64(SizeDW), int64(absint.SizeDW)},
		{"ModeIMM", int64(ModeIMM), int64(absint.ModeIMM)},
		{"ModeMEM", int64(ModeMEM), int64(absint.ModeMEM)},
		{"SrcK", int64(SrcK), int64(absint.SrcK)},
		{"SrcX", int64(SrcX), int64(absint.SrcX)},
		{"OpAdd", int64(OpAdd), int64(absint.OpAdd)},
		{"OpSub", int64(OpSub), int64(absint.OpSub)},
		{"OpMul", int64(OpMul), int64(absint.OpMul)},
		{"OpDiv", int64(OpDiv), int64(absint.OpDiv)},
		{"OpOr", int64(OpOr), int64(absint.OpOr)},
		{"OpAnd", int64(OpAnd), int64(absint.OpAnd)},
		{"OpLsh", int64(OpLsh), int64(absint.OpLsh)},
		{"OpRsh", int64(OpRsh), int64(absint.OpRsh)},
		{"OpNeg", int64(OpNeg), int64(absint.OpNeg)},
		{"OpMod", int64(OpMod), int64(absint.OpMod)},
		{"OpXor", int64(OpXor), int64(absint.OpXor)},
		{"OpMov", int64(OpMov), int64(absint.OpMov)},
		{"OpArsh", int64(OpArsh), int64(absint.OpArsh)},
		{"OpJa", int64(OpJa), int64(absint.OpJa)},
		{"OpJeq", int64(OpJeq), int64(absint.OpJeq)},
		{"OpJgt", int64(OpJgt), int64(absint.OpJgt)},
		{"OpJge", int64(OpJge), int64(absint.OpJge)},
		{"OpJset", int64(OpJset), int64(absint.OpJset)},
		{"OpJne", int64(OpJne), int64(absint.OpJne)},
		{"OpJsgt", int64(OpJsgt), int64(absint.OpJsgt)},
		{"OpJsge", int64(OpJsge), int64(absint.OpJsge)},
		{"OpCall", int64(OpCall), int64(absint.OpCall)},
		{"OpExit", int64(OpExit), int64(absint.OpExit)},
		{"OpJlt", int64(OpJlt), int64(absint.OpJlt)},
		{"OpJle", int64(OpJle), int64(absint.OpJle)},
		{"OpJslt", int64(OpJslt), int64(absint.OpJslt)},
		{"OpJsle", int64(OpJsle), int64(absint.OpJsle)},
		{"OpLdImm64", int64(OpLdImm64), int64(absint.OpLdImm64)},
		{"NumRegisters", int64(numRegisters), int64(absint.NumRegisters)},
		{"RegFP", int64(R10), int64(absint.RegFP)},
		{"StackSize", int64(StackSize), int64(absint.StackSize)},
		{"MaxProgramLen", int64(MaxProgramLen), int64(absint.MaxProgramLen)},
	}
	for _, p := range pairs {
		if p.ebpf != p.abst {
			t.Errorf("%s: ebpf %#x != absint %#x", p.name, p.ebpf, p.abst)
		}
	}
}

// evictionScanProgram is the headline program class the analysis
// unlocks: a bounded loop writing every slot of the frame through a
// computed (variable-offset) stack pointer — the shape of a warm-pool
// eviction scan. A verifier that tracks only register types and
// constant offsets cannot accept either feature.
func evictionScanProgram() []Instruction {
	b := NewBuilder()
	b.Mov64Imm(R6, 0).
		Label("loop").
		Mov64Reg(R2, R6).
		Lsh64Imm(R2, 3). // r2 = i*8 in [0,504]
		Mov64Reg(R3, R10).
		Add64Imm(R3, -512).
		Add64Reg(R3, R2). // r3 = fp-512+i*8, proven in [fp-512, fp-8]
		StxDW(R3, 0, R6).
		Add64Imm(R6, 1).
		JmpImm(OpJlt, R6, 64, "loop").
		Mov64Reg(R0, R6).
		Exit()
	return b.MustProgram()
}

// TestAbsintEvictionScan is the acceptance test for bounded loops: the
// eviction-scan loop, whose store offset varies with the induction
// variable, is accepted and runs to the right answer.
func TestAbsintEvictionScan(t *testing.T) {
	vm := NewVM()
	insns := evictionScanProgram()

	r := vm.Analyze(insns)
	if !r.OK {
		t.Fatalf("analysis rejected: %v", r.Err)
	}
	if err := Verify(insns, vm); err != nil {
		t.Fatalf("Verify rejected: %v", err)
	}

	if got, err := vm.MustLoad("scan", insns).Run(nil); err != nil {
		t.Fatalf("run: %v", err)
	} else if got != 64 {
		t.Fatalf("got %d, want 64", got)
	}
}

// TestAbsintBoundedLoopWithinBudget checks that a proven-bounded loop
// runs to completion inside the instruction budget, and counts.
func TestAbsintBoundedLoopWithinBudget(t *testing.T) {
	vm := NewVM()
	insns := evictionScanProgram()
	p, err := vm.Load("scan", insns)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 64 || p.Runs() != 1 {
		t.Fatalf("got %d after %d runs, want 64 after 1", got, p.Runs())
	}
}

// deadRegionProgram jumps over a statically dead region containing an
// invalid instruction: r1 is forced to 3, so the jeq is always taken.
func deadRegionProgram() []Instruction {
	return []Instruction{
		{Op: ClassALU64 | OpMov | SrcK, Dst: R1, Imm: 3},
		{Op: ClassJMP | OpJeq | SrcK, Dst: R1, Imm: 3, Off: 2},
		// Dead: memory access through a scalar register.
		{Op: ClassLDX | ModeMEM | SizeDW, Dst: R0, Src: R1, Off: 0},
		{Op: ClassJMP | OpExit},
		{Op: ClassALU64 | OpMov | SrcK, Dst: R0, Imm: 9},
		{Op: ClassJMP | OpExit},
	}
}

// TestAbsintDeadRegion: a program whose only invalid
// instructions are statically dead is accepted by the verifier and
// runs without ever reaching them.
func TestAbsintDeadRegion(t *testing.T) {
	vm := NewVM()
	insns := deadRegionProgram()
	r := vm.Analyze(insns)
	if !r.OK {
		t.Fatalf("analysis rejected: %v", r.Err)
	}
	b, ok := r.Branches[1]
	if !ok || !b.FallDead || b.TakenDead {
		t.Fatalf("expected fall-dead branch fact at pc 1, got %+v (present %v)", b, ok)
	}
	if r.Reachable[2] {
		t.Fatal("dead region marked reachable")
	}

	p, err := vm.Load("dead", insns)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Fatalf("got %d, want 9", got)
	}
}

// TestAbsintOneSidedBranch: the analysis marks the never-taken
// edge of a one-sided conditional dead, and the run takes the other.
func TestAbsintOneSidedBranch(t *testing.T) {
	// r1 = 8; jgt r1, 100 is never taken; fall path returns 5.
	insns := []Instruction{
		{Op: ClassALU64 | OpMov | SrcK, Dst: R1, Imm: 8},
		{Op: ClassJMP | OpJgt | SrcK, Dst: R1, Imm: 100, Off: 2},
		{Op: ClassALU64 | OpMov | SrcK, Dst: R0, Imm: 5},
		{Op: ClassJMP | OpExit},
		{Op: ClassALU64 | OpMov | SrcK, Dst: R0, Imm: 6},
		{Op: ClassJMP | OpExit},
	}
	vm := NewVM()
	r := vm.Analyze(insns)
	if !r.OK {
		t.Fatalf("analysis rejected: %v", r.Err)
	}
	if b := r.Branches[1]; !b.TakenDead || b.FallDead {
		t.Fatalf("expected taken-dead fact at pc 1, got %+v", b)
	}
	if got, err := vm.MustLoad("flat", insns).Run(nil); err != nil || got != 5 {
		t.Fatalf("got %d, err %v", got, err)
	}
}

// TestInterpBranches checks the branch observation hook: edge order,
// pc values and taken flags for a short two-branch program.
func TestInterpBranches(t *testing.T) {
	// jeq r1, 1 (taken with r1=1), then jgt r1, 5 (not taken).
	insns := []Instruction{
		{Op: ClassJMP | OpJeq | SrcK, Dst: R1, Imm: 1, Off: 1},
		{Op: ClassJMP | OpExit}, // skipped (r0 uninit — never reached)
		{Op: ClassJMP | OpJgt | SrcK, Dst: R1, Imm: 5, Off: 0},
		{Op: ClassALU64 | OpMov | SrcK, Dst: R0, Imm: 3},
		{Op: ClassJMP | OpExit},
	}
	vm := NewVM()
	p := &Program{Name: "hook", insns: insns, vm: vm, Enabled: true}
	p.dec = decodeProgram(insns, vm)
	type edge struct {
		pc    int
		taken bool
	}
	var got []edge
	ret, err := p.InterpBranches(nil, func(pc int, taken bool) {
		got = append(got, edge{pc, taken})
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 3 {
		t.Fatalf("ret %d, want 3", ret)
	}
	want := []edge{{0, true}, {2, false}}
	if len(got) != len(want) {
		t.Fatalf("observed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d: observed %v, want %v", i, got[i], want[i])
		}
	}
}

// TestVerifyRejectsWhatAbsintCannotProve: an unbounded loop loads and
// dies on the instruction budget, and an out-of-frame variable store is
// rejected at the store with the analysis' reason.
func TestVerifyRejectsWhatAbsintCannotProve(t *testing.T) {
	vm := NewVM()
	// An unbounded loop is accepted (the seed contract: dynamic
	// budget termination).
	unbounded := []Instruction{
		{Op: ClassALU64 | OpMov | SrcK, Dst: R0, Imm: 0},
		{Op: ClassALU64 | OpAdd | SrcK, Dst: R0, Imm: 1},
		{Op: ClassJMP | OpJa, Off: -2},
		{Op: ClassJMP | OpExit},
	}
	if err := Verify(unbounded, vm); err != nil {
		t.Fatalf("unbounded loop rejected (seed contract allows it): %v", err)
	}
	p, err := vm.Load("unbounded", unbounded)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(nil); err == nil || !strings.Contains(err.Error(), "instruction budget") {
		t.Fatalf("unbounded loop must die on the budget, got %v", err)
	}

	// The eviction scan with a 66-iteration bound writes past the
	// frame on the last iterations; the analysis must not prove it.
	bad := evictionScanProgram()
	for i, in := range bad {
		if in.Op == ClassJMP|OpJlt|SrcK && in.Imm == 64 {
			bad[i].Imm = 66
		}
	}
	err = Verify(bad, vm)
	if err == nil {
		t.Fatal("out-of-frame variable store accepted")
	}
	if ve, ok := err.(*VerifyError); !ok || ve.PC != 6 || !strings.Contains(ve.Msg, "not provably in frame") {
		t.Fatalf("want rejection at the store (pc 6), got %v", err)
	}
}
