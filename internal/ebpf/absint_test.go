package ebpf

import (
	"strings"
	"testing"
)

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
