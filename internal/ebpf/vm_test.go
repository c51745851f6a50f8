package ebpf

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// runProg assembles, loads and runs a program on a fresh VM.
func runProg(t *testing.T, build func(b *Builder), args ...uint64) uint64 {
	t.Helper()
	vm := NewVM()
	return runProgOn(t, vm, build, args...)
}

func runProgOn(t *testing.T, vm *VM, build func(b *Builder), args ...uint64) uint64 {
	t.Helper()
	b := NewBuilder()
	build(b)
	insns, err := b.Program()
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	prog, err := vm.Load("test", insns)
	if err != nil {
		t.Fatalf("load: %v\n%s", err, Disassemble(insns))
	}
	r0, err := prog.Run(nil, args...)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, Disassemble(insns))
	}
	return r0
}

func TestReturnConstant(t *testing.T) {
	got := runProg(t, func(b *Builder) {
		b.Mov64Imm(R0, 42).Exit()
	})
	if got != 42 {
		t.Fatalf("got %d, want 42", got)
	}
}

func TestReturnArgument(t *testing.T) {
	got := runProg(t, func(b *Builder) {
		b.Mov64Reg(R0, R1).Exit()
	}, 1234)
	if got != 1234 {
		t.Fatalf("got %d, want 1234", got)
	}
}

func TestArithmetic(t *testing.T) {
	// r0 = ((a + b) * 3 - 5) / 2
	got := runProg(t, func(b *Builder) {
		b.Mov64Reg(R0, R1).
			Add64Reg(R0, R2).
			Mul64Imm(R0, 3).
			Sub64Imm(R0, 5).
			Div64Imm(R0, 2).
			Exit()
	}, 10, 20)
	if want := uint64(((10+20)*3 - 5) / 2); got != want {
		t.Fatalf("got %d, want %d", got, want)
	}
}

func TestBitOps(t *testing.T) {
	got := runProg(t, func(b *Builder) {
		b.Mov64Reg(R0, R1).
			And64Imm(R0, 0xff).
			Or64Imm(R0, 0x100).
			Lsh64Imm(R0, 4).
			Rsh64Imm(R0, 2).
			Exit()
	}, 0xabcd)
	want := ((uint64(0xabcd)&0xff | 0x100) << 4) >> 2
	if got != want {
		t.Fatalf("got %#x, want %#x", got, want)
	}
}

func TestLdImm64(t *testing.T) {
	const v = uint64(0xdead_beef_cafe_f00d)
	got := runProg(t, func(b *Builder) {
		b.LdImm64(R0, v).Exit()
	})
	if got != v {
		t.Fatalf("got %#x, want %#x", got, v)
	}
}

func TestNegSignExtension(t *testing.T) {
	got := runProg(t, func(b *Builder) {
		b.Mov64Imm(R0, 5).Neg64(R0).Exit()
	})
	if int64(got) != -5 {
		t.Fatalf("got %d, want -5", int64(got))
	}
}

func TestMovImmSignExtends(t *testing.T) {
	got := runProg(t, func(b *Builder) {
		b.Mov64Imm(R0, -1).Exit()
	})
	if got != ^uint64(0) {
		t.Fatalf("got %#x, want all-ones", got)
	}
}

func TestDivByZeroYieldsZero(t *testing.T) {
	// Division by a zero *register* is a runtime case the kernel
	// defines as 0 (immediates are rejected by the verifier).
	got := runProg(t, func(b *Builder) {
		b.Mov64Imm(R0, 100).
			Mov64Imm(R2, 0).
			Div64Reg(R0, R2).
			Exit()
	})
	if got != 0 {
		t.Fatalf("got %d, want 0", got)
	}
}

func TestStackStoreLoad(t *testing.T) {
	got := runProg(t, func(b *Builder) {
		b.Mov64Imm(R2, 777).
			StxDW(R10, -8, R2).
			LdxDW(R0, R10, -8).
			Exit()
	})
	if got != 777 {
		t.Fatalf("got %d, want 777", got)
	}
}

func TestStackStImm(t *testing.T) {
	got := runProg(t, func(b *Builder) {
		b.StDWImm(R10, -16, 4096).
			LdxDW(R0, R10, -16).
			Exit()
	})
	if got != 4096 {
		t.Fatalf("got %d, want 4096", got)
	}
}

func TestStackPointerArithmetic(t *testing.T) {
	got := runProg(t, func(b *Builder) {
		b.Mov64Reg(R6, R10).
			Add64Imm(R6, -32).
			Mov64Imm(R2, 9).
			StxDW(R6, 8, R2). // fp-24
			LdxDW(R0, R10, -24).
			Exit()
	})
	if got != 9 {
		t.Fatalf("got %d, want 9", got)
	}
}

func TestConditionalJump(t *testing.T) {
	abs := func(x int64) uint64 {
		return runProg(t, func(b *Builder) {
			b.Mov64Reg(R0, R1).
				JmpImm(OpJsge, R0, 0, "done").
				Neg64(R0).
				Label("done").
				Exit()
		}, uint64(x))
	}
	if got := abs(-7); got != 7 {
		t.Fatalf("abs(-7) = %d", got)
	}
	if got := abs(7); got != 7 {
		t.Fatalf("abs(7) = %d", got)
	}
}

func TestJumpRegisterComparisons(t *testing.T) {
	max := func(a, b uint64) uint64 {
		return runProg(t, func(bl *Builder) {
			bl.Mov64Reg(R0, R1).
				JmpReg(OpJge, R1, R2, "done").
				Mov64Reg(R0, R2).
				Label("done").
				Exit()
		}, a, b)
	}
	if got := max(3, 9); got != 9 {
		t.Fatalf("max(3,9) = %d", got)
	}
	if got := max(9, 3); got != 9 {
		t.Fatalf("max(9,3) = %d", got)
	}
	if err := quick.Check(func(a, b uint64) bool {
		want := a
		if b > a {
			want = b
		}
		return max(a, b) == want
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestJset(t *testing.T) {
	tst := func(v uint64) uint64 {
		return runProg(t, func(b *Builder) {
			b.Mov64Imm(R0, 0).
				JmpImm(OpJset, R1, 0x8, "bitset").
				Exit().
				Label("bitset").
				Mov64Imm(R0, 1).
				Exit()
		}, v)
	}
	if tst(0xf) != 1 || tst(0x7) != 0 {
		t.Fatal("jset misbehaves")
	}
}

func TestUnconditionalJump(t *testing.T) {
	got := runProg(t, func(b *Builder) {
		b.Mov64Imm(R0, 1).
			Ja("end").
			Mov64Imm(R0, 2). // skipped
			Label("end").
			Exit()
	})
	if got != 1 {
		t.Fatalf("got %d, want 1", got)
	}
}

func TestAlu32ZeroesUpperHalf(t *testing.T) {
	got := runProg(t, func(b *Builder) {
		b.LdImm64(R0, 0xffff_ffff_ffff_ffff).
			Raw(Instruction{Op: ClassALU | OpAdd | SrcK, Dst: R0, Imm: 1}).
			Exit()
	})
	if got != 0 {
		t.Fatalf("got %#x, want 0 (32-bit wrap zero-extends)", got)
	}
}

func TestJmp32ComparesLow32(t *testing.T) {
	// dst = 0x1_0000_0005: 64-bit compare vs 5 differs from 32-bit.
	prog := func(use32 bool) uint64 {
		return runProg(t, func(b *Builder) {
			b.LdImm64(R6, 0x1_0000_0005)
			b.Mov64Imm(R0, 0)
			if use32 {
				b.Jmp32Imm(OpJeq, R6, 5, "eq")
			} else {
				b.JmpImm(OpJeq, R6, 5, "eq")
			}
			b.Exit()
			b.Label("eq")
			b.Mov64Imm(R0, 1)
			b.Exit()
		})
	}
	if prog(false) != 0 {
		t.Fatal("64-bit jeq matched across high bits")
	}
	if prog(true) != 1 {
		t.Fatal("jmp32 jeq ignored low 32 bits")
	}
}

func TestJmp32SignedUsesInt32(t *testing.T) {
	// low 32 bits = 0xFFFFFFFF = -1 as int32: jslt32 vs 0 must take.
	got := runProg(t, func(b *Builder) {
		b.LdImm64(R6, 0x7FFF_FFFF_FFFF_FFFF). // int64 positive, int32 -1
							Mov64Imm(R0, 0).
							Jmp32Imm(OpJslt, R6, 0, "neg").
							Exit().
							Label("neg").
							Mov64Imm(R0, 1).
							Exit()
	})
	if got != 1 {
		t.Fatal("jmp32 signed compare did not use int32 semantics")
	}
}

func TestJmp32UnsignedOrderPreserved(t *testing.T) {
	if err := quick.Check(func(a, b uint32) bool {
		got := runProg(t, func(bl *Builder) {
			bl.Mov64Reg(R6, R1).
				Mov64Reg(R7, R2).
				Mov64Imm(R0, 0).
				Jmp32Reg(OpJgt, R6, R7, "gt").
				Exit().
				Label("gt").
				Mov64Imm(R0, 1).
				Exit()
		}, uint64(a), uint64(b))
		want := uint64(0)
		if a > b {
			want = 1
		}
		return got == want
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestAlu32BuilderOps(t *testing.T) {
	got := runProg(t, func(b *Builder) {
		b.LdImm64(R0, 0xFFFF_FFFF_0000_0000).
			Add32Imm(R0, 7).  // zeroes upper half, R0 = 7
			Sub32Imm(R0, 2).  // 5
			And32Imm(R0, 0xf) // 5
		b.Exit()
	})
	if got != 5 {
		t.Fatalf("got %d, want 5 (upper half must be zeroed)", got)
	}
}

func TestVerifierRejectsJmp32Exit(t *testing.T) {
	insns := []Instruction{
		{Op: ClassALU64 | OpMov | SrcK, Dst: R0, Imm: 0},
		{Op: ClassJMP32 | OpExit},
	}
	if err := Verify(insns, NewVM()); err == nil {
		t.Fatal("exit in JMP32 class accepted")
	}
}

func TestHelperCall(t *testing.T) {
	vm := NewVM()
	vm.MustRegisterHelper(KfuncBase, "double",
		func(ctx *CallContext, args [5]uint64) (uint64, error) {
			return args[0] * 2, nil
		})
	got := runProgOn(t, vm, func(b *Builder) {
		b.Call(KfuncBase). // R1 already holds arg
					Exit() // R0 = helper result
	}, 21)
	if got != 42 {
		t.Fatalf("got %d, want 42", got)
	}
}

func TestMapHelpersRoundTrip(t *testing.T) {
	vm := NewVM()
	m := MustNewMap(MapTypeHash, "ws", 16)
	fd := vm.RegisterMap(m)

	// prog: key=R1 at fp-8; val=R2 at fp-16; update; lookup back into
	// fp-24; return found value.
	got := runProgOn(t, vm, func(b *Builder) {
		b.StxDW(R10, -8, R1).
			StxDW(R10, -16, R2).
			Mov64Imm(R1, fd).
			Mov64Reg(R2, R10).Add64Imm(R2, -8).
			Mov64Reg(R3, R10).Add64Imm(R3, -16).
			Call(HelperMapUpdateElem).
			Mov64Imm(R1, fd).
			Mov64Reg(R2, R10).Add64Imm(R2, -8).
			Mov64Reg(R3, R10).Add64Imm(R3, -24).
			Call(HelperMapLookupElem).
			JmpImm(OpJeq, R0, 1, "hit").
			Mov64Imm(R0, 0).
			Exit().
			Label("hit").
			LdxDW(R0, R10, -24).
			Exit()
	}, 0x1000, 0x2222)
	if got != 0x2222 {
		t.Fatalf("got %#x, want 0x2222", got)
	}
	if v, ok := m.Lookup(0x1000); !ok || v != 0x2222 {
		t.Fatalf("map state: v=%#x ok=%v", v, ok)
	}
}

func TestMapLookupMiss(t *testing.T) {
	vm := NewVM()
	m := MustNewMap(MapTypeHash, "ws", 16)
	fd := vm.RegisterMap(m)
	got := runProgOn(t, vm, func(b *Builder) {
		b.StDWImm(R10, -8, 99).
			Mov64Imm(R1, fd).
			Mov64Reg(R2, R10).Add64Imm(R2, -8).
			Mov64Reg(R3, R10).Add64Imm(R3, -16).
			Call(HelperMapLookupElem).
			Exit()
	})
	if got != 0 {
		t.Fatalf("lookup miss returned %d, want 0", got)
	}
}

func TestKtimeHelper(t *testing.T) {
	vm := NewVM()
	now := uint64(12345)
	vm.SetClock(func() uint64 { return now })
	got := runProgOn(t, vm, func(b *Builder) {
		b.Call(HelperKtimeGetNS).Exit()
	})
	if got != 12345 {
		t.Fatalf("ktime = %d, want 12345", got)
	}
}

func TestTracePrintk(t *testing.T) {
	vm := NewVM()
	var logged string
	vm.TraceLog = func(m string) { logged = m }
	runProgOn(t, vm, func(b *Builder) {
		b.Mov64Imm(R1, 7).Mov64Imm(R2, 8).Mov64Imm(R3, 0).Mov64Imm(R4, 0).Mov64Imm(R5, 0).
			Call(HelperTracePrintk).Exit()
	})
	if logged == "" {
		t.Fatal("trace_printk produced no output")
	}
}

func TestProgramRunCounter(t *testing.T) {
	vm := NewVM()
	prog := vm.MustLoad("p", NewBuilder().Mov64Imm(R0, 0).Exit().MustProgram())
	for i := 0; i < 3; i++ {
		if _, err := prog.Run(nil); err != nil {
			t.Fatal(err)
		}
	}
	if prog.Runs() != 3 {
		t.Fatalf("Runs = %d, want 3", prog.Runs())
	}
}

func TestTooManyArgs(t *testing.T) {
	vm := NewVM()
	prog := vm.MustLoad("p", NewBuilder().Mov64Imm(R0, 0).Exit().MustProgram())
	if _, err := prog.Run(nil, 1, 2, 3, 4, 5, 6); err == nil {
		t.Fatal("expected error for 6 args")
	}
}

func TestInfiniteLoopHitsInsnBudget(t *testing.T) {
	insns := []Instruction{
		{Op: ClassALU64 | OpMov | SrcK, Dst: R0, Imm: 0},
		{Op: ClassJMP | OpJa, Off: -2}, // back to pc 0 forever
		{Op: ClassJMP | OpExit},
	}
	vm := NewVM()
	prog, err := vm.Load("spin", insns)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := prog.Run(nil); err == nil || !contains(err.Error(), "budget") {
		t.Fatalf("err = %v, want instruction-budget abort", err)
	}
}

func TestBoundedLoopComputesInVM(t *testing.T) {
	// Sum the first N integers with a runtime loop — the pattern the
	// SnapBPF prefetch program uses to walk its group schedule.
	insns := []Instruction{
		{Op: ClassALU64 | OpMov | SrcK, Dst: R0, Imm: 0},
		{Op: ClassALU64 | OpMov | SrcK, Dst: R2, Imm: 0},
		{Op: ClassJMP | OpJge | SrcX, Dst: R2, Src: R1, Off: 3},
		{Op: ClassALU64 | OpAdd | SrcK, Dst: R2, Imm: 1},
		{Op: ClassALU64 | OpAdd | SrcX, Dst: R0, Src: R2},
		{Op: ClassJMP | OpJa, Off: -4},
		{Op: ClassJMP | OpExit},
	}
	vm := NewVM()
	prog := vm.MustLoad("sum", insns)
	got, err := prog.Run(nil, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got != 500500 {
		t.Fatalf("sum = %d, want 500500", got)
	}
}

func TestHelperPoisonsCallerSavedRegs(t *testing.T) {
	// After a call, R1-R5 hold poison; a verified program never reads
	// them, but this documents the runtime behaviour.
	vm := NewVM()
	vm.MustRegisterHelper(KfuncBase+1, "nop",
		func(ctx *CallContext, args [5]uint64) (uint64, error) { return 0, nil })
	b := NewBuilder()
	b.Mov64Imm(R1, 1).Call(KfuncBase+1).Mov64Reg(R0, R1).Exit()
	insns := b.MustProgram()
	if err := Verify(insns, vm); err == nil {
		t.Fatal("verifier should reject reading R1 after a call")
	}
}

func TestDisassembleStable(t *testing.T) {
	insns := NewBuilder().
		Mov64Imm(R0, 1).
		StxDW(R10, -8, R0).
		LdxDW(R2, R10, -8).
		JmpImm(OpJeq, R2, 1, "x").
		Label("x").
		Exit().
		MustProgram()
	s := Disassemble(insns)
	if s == "" {
		t.Fatal("empty disassembly")
	}
	for _, want := range []string{"mov", "stx64", "ldx64", "jeq", "exit"} {
		if !contains(s, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// The tests below pin the interpreter's outcome on hand-written
// programs covering every opcode the verifier accepts, the
// capture/prefetch helper idioms and both sides of the instruction
// budget: R0 and the final register file, the error text, the Runs
// counter and every helper-visible side effect.

// TestEnginesAgreeAllOpcodes pins one minimal program per (class, op,
// operand-mode) combination; see opcodeCases.
func TestEnginesAgreeAllOpcodes(t *testing.T) {
	checkPinned(t, opcodeCases(), opcodePins)
}

// TestInterpreterHelperIdioms pins the capture/prefetch helper idioms,
// including their clock reads, kfunc calls and final map contents.
func TestInterpreterHelperIdioms(t *testing.T) {
	checkPinned(t, helperIdiomCases(newRunEnv(t).fd), helperIdiomPins)
}

// TestInterpreterBudgetExhaustion: an infinite loop aborts with the
// instruction-budget error, and the failed run is not counted.
func TestInterpreterBudgetExhaustion(t *testing.T) {
	const want = "runs=0 err=ebpf: pin: instruction budget exceeded"
	if got := outcome(t, budgetLoop()); got != want {
		t.Fatalf("got  %s\nwant %s", got, want)
	}
}

// TestInterpreterNearBudget runs a loop that executes within a few
// instructions of InsnBudget and then exits normally with sum(1..n).
func TestInterpreterNearBudget(t *testing.T) {
	n := int32(InsnBudget/4 - 2)
	const want = "runs=1 r0=0x7469f6fa9 r1=0x3d08e r2=0x3d08e r10=0x7ffff000"
	if sum := uint64(n) * uint64(n+1) / 2; !strings.Contains(want, fmt.Sprintf(" r0=%#x ", sum)) {
		t.Fatalf("pinned outcome %q does not return sum(1..%d) = %#x", want, n, sum)
	}
	if got := outcome(t, nearBudgetLoop(n)); got != want {
		t.Fatalf("got  %s\nwant %s", got, want)
	}
}

// TestRunScratchReuse: sequential runs share one scratch frame, and
// every run must still start from a zeroed stack — a slot the previous
// run dirtied reads as zero.
func TestRunScratchReuse(t *testing.T) {
	// Reads fp-8 before storing the argument there, and reads fp-16,
	// which it never writes.
	insns := []Instruction{
		{Op: ClassLDX | ModeMEM | SizeDW, Dst: R0, Src: R10, Off: -8},
		{Op: ClassSTX | ModeMEM | SizeDW, Dst: R10, Src: R1, Off: -8},
		{Op: ClassLDX | ModeMEM | SizeDW, Dst: R2, Src: R10, Off: -16},
		{Op: ClassALU64 | OpOr | SrcX, Dst: R0, Src: R2},
		{Op: ClassJMP | OpExit},
	}
	p, err := NewVM().Load("reuse", insns)
	if err != nil {
		t.Fatal(err)
	}
	var frame *runState
	for i, arg := range []uint64{0xffff_ffff_ffff_ffff, 0xdead, 0xbeef, 1} {
		r0, err := p.Run(nil, arg)
		if err != nil {
			t.Fatal(err)
		}
		if r0 != 0 {
			t.Fatalf("run %d: read %#x from a slot that must be zero", i, r0)
		}
		if i == 0 {
			frame = p.scratch
		} else if p.scratch != frame {
			t.Fatalf("run %d did not reuse the scratch frame", i)
		}
	}
	if p.Runs() != 4 {
		t.Fatalf("Runs = %d, want 4", p.Runs())
	}
}

// TestHelperPanicKeepsScratch: a helper that panics (its caller
// recovers) must not orphan the scratch state. Later runs reuse it,
// allocating nothing, and are still counted.
func TestHelperPanicKeepsScratch(t *testing.T) {
	vm := NewVM()
	const boomID = KfuncBase + 98
	vm.MustRegisterHelper(boomID, "boom", func(ctx *CallContext, args [5]uint64) (uint64, error) {
		if args[0] == 1 {
			panic("helper bug")
		}
		return 7, nil
	})
	b := NewBuilder()
	b.Call(boomID).Exit()
	prog := vm.MustLoad("boom", b.MustProgram())
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("helper panic did not reach the caller")
			}
		}()
		_, _ = prog.Run(nil, 1)
	}()
	allocs := testing.AllocsPerRun(100, func() {
		if got, err := prog.Run(nil, 0); err != nil || got != 7 {
			t.Fatalf("got %d, err %v", got, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a run after a helper panic allocates %.1f times, want 0", allocs)
	}
	if got := prog.Runs(); got != 101 { // AllocsPerRun adds one warm-up run
		t.Fatalf("Runs = %d, want 101", got)
	}
}

// TestProgramConcurrentRun drives one loaded program from many
// goroutines at once: the scratch-buffer arbitration must fall back to
// fresh state, never corrupt results, and stay race-clean.
func TestProgramConcurrentRun(t *testing.T) {
	vm := NewVM()
	fd := vm.RegisterMap(MustNewMap(MapTypeArray, "arr", 8))
	m, _ := vm.MapByFD(fd)
	if err := m.Update(3, 77); err != nil {
		t.Fatal(err)
	}
	// Stack-heavy program: store both args, reload, sum, add the map
	// value for key 3 — any cross-run stack sharing would corrupt it.
	b := NewBuilder()
	b.StxDW(R10, -8, R1).
		StxDW(R10, -16, R2).
		StDWImm(R10, -24, 3).
		Mov64Imm(R1, fd).
		Mov64Reg(R2, R10).
		Add64Imm(R2, -24).
		Mov64Reg(R3, R10).
		Add64Imm(R3, -32).
		Call(HelperMapLookupElem).
		LdxDW(R6, R10, -8).
		LdxDW(R7, R10, -16).
		LdxDW(R8, R10, -32).
		Mov64Reg(R0, R6).
		Add64Reg(R0, R7).
		Add64Reg(R0, R8).
		Exit()
	prog := vm.MustLoad("conc", b.MustProgram())

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				got, err := prog.Run(nil, 10, 20)
				if err != nil {
					errs <- err
					return
				}
				if got != 10+20+77 {
					errs <- &VerifyError{Msg: "corrupted result"}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if prog.Runs() != 8*2000 {
		t.Fatalf("Runs = %d, want %d", prog.Runs(), 8*2000)
	}
}

// TestMapRegisteredAfterLoadReachable: an fd registered after the
// program loaded must still resolve through the VM table, and a fd
// past its end must not.
func TestMapRegisteredAfterLoadReachable(t *testing.T) {
	vm := NewVM()
	const probeID = KfuncBase + 99
	vm.MustRegisterHelper(probeID, "probe_map", func(ctx *CallContext, args [5]uint64) (uint64, error) {
		if _, ok := ctx.Map(int32(args[0])); ok {
			return 1, nil
		}
		return 0, nil
	})
	b := NewBuilder()
	b.Call(probeID).Exit()
	prog := vm.MustLoad("late", b.MustProgram())

	lateFD := vm.RegisterMap(MustNewMap(MapTypeHash, "late", 16))
	got, err := prog.Run(nil, uint64(lateFD))
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("late-registered map not reachable (got %d)", got)
	}
	if got, err := prog.Run(nil, uint64(lateFD+1000)); err != nil || got != 0 {
		t.Fatalf("bogus fd resolved: got=%d err=%v", got, err)
	}
}

// TestRandomVerifiableProgramsPinned runs every generator program
// the verifier accepts and pins the count and a digest of all their
// outcomes, so any change in what the interpreter computes on the
// random corpus fails here.
func TestRandomVerifiableProgramsPinned(t *testing.T) {
	const (
		trials       = 3000
		wantAccepted = 724
		wantDigest   = "f45be55a0ed29b14b96ebcaf1c8ab24274560b1667382edf725c0c5bad0a0011"
	)
	scratch := newRunEnv(t)
	h := sha256.New()
	accepted := 0
	for seed := int64(0); seed < trials; seed++ {
		rng := rand.New(rand.NewSource(seed))
		insns := randomProgram(rng, scratch.fd)
		if Verify(insns, scratch.vm) != nil {
			continue
		}
		accepted++
		fmt.Fprintf(h, "%d %s\n", seed, outcome(t, insns, rng.Uint64(), rng.Uint64()))
	}
	if accepted != wantAccepted {
		t.Fatalf("%d/%d generator programs accepted, want %d", accepted, trials, wantAccepted)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != wantDigest {
		t.Fatalf("outcome digest %s, want %s", got, wantDigest)
	}
}

// kfuncProbe is a test-only kfunc id used to record call sequences.
const kfuncProbe = KfuncBase + 77

// runEnv is one VM prepared for a pinned run: a registered hash map, a
// deterministic counting clock, a recording kfunc and a recording
// trace log.
type runEnv struct {
	vm     *VM
	fd     int32
	m      *Map
	calls  []uint64 // kfuncProbe's observed first arguments
	ticks  uint64   // counting clock state
	printk []string
}

func newRunEnv(t testing.TB) *runEnv {
	t.Helper()
	e := &runEnv{vm: NewVM()}
	e.m = MustNewMap(MapTypeHash, "pin", 1024)
	e.fd = e.vm.RegisterMap(e.m)
	e.vm.SetClock(func() uint64 {
		e.ticks++
		return e.ticks * 1000
	})
	e.vm.TraceLog = func(msg string) { e.printk = append(e.printk, msg) }
	e.vm.MustRegisterHelper(kfuncProbe, "probe", func(ctx *CallContext, args [5]uint64) (uint64, error) {
		e.calls = append(e.calls, args[0])
		return args[0]*3 + uint64(len(e.calls)), nil
	})
	return e
}

// outcome loads insns into a fresh runEnv, runs it once and renders
// every observable of the run on one line: the Runs counter, then
// either the nonzero registers of the final register file (R0 among
// them) or the error text, then any helper-visible side effects.
func outcome(t testing.TB, insns []Instruction, args ...uint64) string {
	t.Helper()
	e := newRunEnv(t)
	p, err := e.vm.Load("pin", insns)
	if err != nil {
		t.Fatalf("load: %v\n%s", err, Disassemble(insns))
	}
	r0, err := p.Run(nil, args...)
	var sb strings.Builder
	fmt.Fprintf(&sb, "runs=%d", p.Runs())
	if err != nil {
		fmt.Fprintf(&sb, " err=%v", err)
	} else {
		if r0 != p.scratch.regs[R0] {
			t.Fatalf("Run returned %#x but the final R0 is %#x", r0, p.scratch.regs[R0])
		}
		for r, v := range p.scratch.regs {
			if v != 0 {
				fmt.Fprintf(&sb, " r%d=%#x", r, v)
			}
		}
	}
	if e.ticks > 0 {
		fmt.Fprintf(&sb, " ticks=%d", e.ticks)
	}
	if len(e.calls) > 0 {
		fmt.Fprintf(&sb, " calls=%v", e.calls)
	}
	if len(e.printk) > 0 {
		fmt.Fprintf(&sb, " printk=%q", e.printk)
	}
	if ents := e.m.Entries(); len(ents) > 0 {
		fmt.Fprintf(&sb, " map=%v", ents)
	}
	return sb.String()
}

// pinCase is one verifiable program and the argument vectors it runs
// under; its pinned outcomes are listed in the same order.
type pinCase struct {
	name  string
	insns []Instruction
	args  [][]uint64
}

// checkPinned runs every case as a subtest and requires each run to
// reproduce its pinned outcome exactly.
func checkPinned(t *testing.T, cases []pinCase, pins map[string][]string) {
	t.Helper()
	if len(cases) != len(pins) {
		t.Fatalf("%d cases but %d pinned entries", len(cases), len(pins))
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, ok := pins[c.name]
			if !ok || len(want) != len(c.args) {
				t.Fatalf("%d pinned outcomes for %d runs", len(want), len(c.args))
			}
			for i, args := range c.args {
				if got := outcome(t, c.insns, args...); got != want[i] {
					t.Errorf("args %#x:\n got %s\nwant %s\n%s", args, got, want[i], Disassemble(c.insns))
				}
			}
		})
	}
}

// opcodeCases is one minimal verifiable program per (class, op,
// operand-mode) combination the verifier accepts, plus lddw, ja, every
// memory access width in its fp-relative and copied-pointer forms, and
// a helper call.
func opcodeCases() []pinCase {
	// Operand values chosen to expose sign-extension, truncation and
	// shift-masking differences: a negative 32-bit pattern, a value
	// with high bits set, and a small positive.
	const a, b = 0xffff_fff0_8000_0011, 7

	type named struct {
		name string
		op   uint8
	}
	srcs := []named{{"imm", SrcK}, {"reg", SrcX}}
	alus := []named{
		{"add", OpAdd}, {"sub", OpSub}, {"mul", OpMul}, {"div", OpDiv},
		{"or", OpOr}, {"and", OpAnd}, {"lsh", OpLsh}, {"rsh", OpRsh},
		{"mod", OpMod}, {"xor", OpXor}, {"mov", OpMov}, {"arsh", OpArsh},
	}
	var cases []pinCase
	for _, cls := range []named{{"alu64", ClassALU64}, {"alu32", ClassALU}} {
		for _, op := range alus {
			for _, src := range srcs {
				cases = append(cases, pinCase{
					name: cls.name + "/" + op.name + "/" + src.name,
					insns: []Instruction{
						{Op: ClassALU64 | OpMov | SrcK, Dst: R1, Imm: 0x11}, // overwritten by args below
						{Op: cls.op | op.op | src.op, Dst: R1, Src: R2, Imm: 13},
						{Op: ClassALU64 | OpMov | SrcX, Dst: R0, Src: R1},
						{Op: ClassJMP | OpExit},
					},
					args: [][]uint64{{a, b}, {b, a}},
				})
			}
		}
		// neg has no source operand.
		cases = append(cases, pinCase{
			name: cls.name + "/neg",
			insns: []Instruction{
				{Op: cls.op | OpNeg, Dst: R1},
				{Op: ClassALU64 | OpMov | SrcX, Dst: R0, Src: R1},
				{Op: ClassJMP | OpExit},
			},
			args: [][]uint64{{a}, {b}},
		})
	}

	jmps := []named{
		{"jeq", OpJeq}, {"jgt", OpJgt}, {"jge", OpJge}, {"jset", OpJset},
		{"jne", OpJne}, {"jsgt", OpJsgt}, {"jsge", OpJsge}, {"jlt", OpJlt},
		{"jle", OpJle}, {"jslt", OpJslt}, {"jsle", OpJsle},
	}
	for _, cls := range []named{{"jmp", ClassJMP}, {"jmp32", ClassJMP32}} {
		for _, op := range jmps {
			for _, src := range srcs {
				cases = append(cases, pinCase{
					name: cls.name + "/" + op.name + "/" + src.name,
					insns: []Instruction{
						{Op: cls.op | op.op | src.op, Dst: R1, Src: R2, Imm: -5, Off: 2},
						{Op: ClassALU64 | OpMov | SrcK, Dst: R0, Imm: 1},
						{Op: ClassJMP | OpExit},
						{Op: ClassALU64 | OpMov | SrcK, Dst: R0, Imm: 2},
						{Op: ClassJMP | OpExit},
					},
					args: [][]uint64{
						{a, b}, {b, a}, {a, a},
						{0xffff_ffff, 0x1_0000_0001}, // equal low words, unequal values
						{0x8000_0000, 5},             // negative as int32, positive as int64
					},
				})
			}
		}
	}

	cases = append(cases,
		pinCase{
			name: "ja",
			insns: []Instruction{
				{Op: ClassJMP | OpJa, Off: 2},
				{Op: ClassALU64 | OpMov | SrcK, Dst: R0, Imm: 1},
				{Op: ClassJMP | OpExit},
				{Op: ClassALU64 | OpMov | SrcK, Dst: R0, Imm: 2},
				{Op: ClassJMP | OpExit},
			},
			args: [][]uint64{{}},
		},
		pinCase{
			name: "lddw",
			insns: []Instruction{
				{Op: OpLdImm64, Dst: R0, Imm: int32(-1)},
				{Imm: int32(0x7eadbeef)},
				{Op: ClassJMP | OpExit},
			},
			args: [][]uint64{{}},
		},
	)

	// Memory: every access width, fp-relative and via a copied frame
	// pointer.
	for _, sz := range []named{{"b", SizeB}, {"h", SizeH}, {"w", SizeW}, {"dw", SizeDW}} {
		cases = append(cases,
			pinCase{
				name: "mem/fp/" + sz.name,
				insns: []Instruction{
					{Op: ClassSTX | ModeMEM | sz.op, Dst: R10, Src: R1, Off: -16},
					{Op: ClassST | ModeMEM | sz.op, Dst: R10, Off: -32, Imm: -2},
					{Op: ClassLDX | ModeMEM | sz.op, Dst: R0, Src: R10, Off: -16},
					{Op: ClassLDX | ModeMEM | sz.op, Dst: R3, Src: R10, Off: -32},
					{Op: ClassALU64 | OpAdd | SrcX, Dst: R0, Src: R3},
					{Op: ClassJMP | OpExit},
				},
				args: [][]uint64{{a}},
			},
			pinCase{
				name: "mem/dyn/" + sz.name,
				insns: []Instruction{
					{Op: ClassALU64 | OpMov | SrcX, Dst: R2, Src: R10},
					{Op: ClassALU64 | OpAdd | SrcK, Dst: R2, Imm: -64},
					{Op: ClassSTX | ModeMEM | sz.op, Dst: R2, Src: R1, Off: 8},
					{Op: ClassLDX | ModeMEM | sz.op, Dst: R0, Src: R2, Off: 8},
					{Op: ClassJMP | OpExit},
				},
				args: [][]uint64{{a}},
			},
		)
	}

	return append(cases, pinCase{
		name: "call",
		insns: []Instruction{
			{Op: ClassALU64 | OpMov | SrcX, Dst: R1, Src: R2},
			{Op: ClassJMP | OpCall, Imm: kfuncProbe},
			{Op: ClassJMP | OpExit},
		},
		args: [][]uint64{{1, 42}},
	})
}

// helperIdiomCases covers the capture/prefetch program shapes: map
// helper preambles, kfunc calls with register arguments, the clock and
// the trace log. fd is the map descriptor a fresh runEnv registers.
func helperIdiomCases(fd int32) []pinCase {
	ktime := NewBuilder()
	ktime.Call(HelperKtimeGetNS).
		Mov64Reg(R6, R0).
		Call(HelperKtimeGetNS).
		Add64Reg(R0, R6).
		Exit()
	// Prefetch-shaped: the kfunc argument is a register copy, not a
	// constant.
	kfunc := NewBuilder()
	kfunc.Mov64Reg(R6, R1).
		Add64Imm(R6, 5).
		Mov64Reg(R1, R6).
		Raw(Instruction{Op: ClassJMP | OpCall, Imm: kfuncProbe}).
		Exit()
	return []pinCase{
		{name: "mapUpdateLookup", insns: mapHelperProgram(fd), args: [][]uint64{{3, 99}, {0, 0}}},
		{name: "captureShaped", insns: benchProgram(), args: [][]uint64{{1, 17}, {2, 17}}}, // second run misses the filter
		{name: "ktimeAndPrintk", insns: ktime.MustProgram(), args: [][]uint64{{}}},
		{name: "kfuncRegArg", insns: kfunc.MustProgram(), args: [][]uint64{{11}}},
	}
}

// budgetLoop never exits: it must abort on the instruction budget.
func budgetLoop() []Instruction {
	return []Instruction{
		{Op: ClassALU64 | OpMov | SrcK, Dst: R0, Imm: 0},
		{Op: ClassALU64 | OpAdd | SrcK, Dst: R0, Imm: 1},
		{Op: ClassJMP | OpJa, Off: -2},
		{Op: ClassJMP | OpExit},
	}
}

// nearBudgetLoop computes sum(1..n) with 4 instructions per iteration.
func nearBudgetLoop(n int32) []Instruction {
	return []Instruction{
		{Op: ClassALU64 | OpMov | SrcK, Dst: R0, Imm: 0},
		{Op: ClassALU64 | OpMov | SrcK, Dst: R2, Imm: 0},
		{Op: ClassALU64 | OpMov | SrcK, Dst: R1, Imm: n},
		{Op: ClassJMP | OpJge | SrcX, Dst: R2, Src: R1, Off: 3},
		{Op: ClassALU64 | OpAdd | SrcK, Dst: R2, Imm: 1},
		{Op: ClassALU64 | OpAdd | SrcX, Dst: R0, Src: R2},
		{Op: ClassJMP | OpJa, Off: -4},
		{Op: ClassJMP | OpExit},
	}
}

var opcodePins = map[string][]string{
	"alu64/add/imm": {
		"runs=1 r0=0x1e r1=0x1e r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x1e r1=0x1e r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu64/add/reg": {
		"runs=1 r0=0x18 r1=0x18 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0xfffffff080000022 r1=0xfffffff080000022 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu64/sub/imm": {
		"runs=1 r0=0x4 r1=0x4 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x4 r1=0x4 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu64/sub/reg": {
		"runs=1 r0=0xa r1=0xa r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0xf80000000 r1=0xf80000000 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu64/mul/imm": {
		"runs=1 r0=0xdd r1=0xdd r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0xdd r1=0xdd r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu64/mul/reg": {
		"runs=1 r0=0x77 r1=0x77 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0xfffffef880000121 r1=0xfffffef880000121 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu64/div/imm": {
		"runs=1 r0=0x1 r1=0x1 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x1 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu64/div/reg": {
		"runs=1 r0=0x2 r1=0x2 r2=0x7 r10=0x7ffff000",
		"runs=1 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu64/or/imm": {
		"runs=1 r0=0x1d r1=0x1d r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x1d r1=0x1d r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu64/or/reg": {
		"runs=1 r0=0x17 r1=0x17 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0xfffffff080000011 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu64/and/imm": {
		"runs=1 r0=0x1 r1=0x1 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x1 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu64/and/reg": {
		"runs=1 r0=0x1 r1=0x1 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x11 r1=0x11 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu64/lsh/imm": {
		"runs=1 r0=0x22000 r1=0x22000 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x22000 r1=0x22000 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu64/lsh/reg": {
		"runs=1 r0=0x880 r1=0x880 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x220000 r1=0x220000 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu64/rsh/imm": {
		"runs=1 r2=0x7 r10=0x7ffff000",
		"runs=1 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu64/rsh/reg": {
		"runs=1 r2=0x7 r10=0x7ffff000",
		"runs=1 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu64/mod/imm": {
		"runs=1 r0=0x4 r1=0x4 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x4 r1=0x4 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu64/mod/reg": {
		"runs=1 r0=0x3 r1=0x3 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x11 r1=0x11 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu64/xor/imm": {
		"runs=1 r0=0x1c r1=0x1c r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x1c r1=0x1c r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu64/xor/reg": {
		"runs=1 r0=0x16 r1=0x16 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0xfffffff080000000 r1=0xfffffff080000000 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu64/mov/imm": {
		"runs=1 r0=0xd r1=0xd r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0xd r1=0xd r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu64/mov/reg": {
		"runs=1 r0=0x7 r1=0x7 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0xfffffff080000011 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu64/arsh/imm": {
		"runs=1 r2=0x7 r10=0x7ffff000",
		"runs=1 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu64/arsh/reg": {
		"runs=1 r2=0x7 r10=0x7ffff000",
		"runs=1 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu64/neg": {
		"runs=1 r0=0xf7fffffef r1=0xf7fffffef r10=0x7ffff000",
		"runs=1 r0=0xfffffffffffffff9 r1=0xfffffffffffffff9 r10=0x7ffff000",
	},
	"alu32/add/imm": {
		"runs=1 r0=0x1e r1=0x1e r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x1e r1=0x1e r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu32/add/reg": {
		"runs=1 r0=0x18 r1=0x18 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x80000022 r1=0x80000022 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu32/sub/imm": {
		"runs=1 r0=0x4 r1=0x4 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x4 r1=0x4 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu32/sub/reg": {
		"runs=1 r0=0xa r1=0xa r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x80000000 r1=0x80000000 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu32/mul/imm": {
		"runs=1 r0=0xdd r1=0xdd r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0xdd r1=0xdd r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu32/mul/reg": {
		"runs=1 r0=0x77 r1=0x77 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x80000121 r1=0x80000121 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu32/div/imm": {
		"runs=1 r0=0x1 r1=0x1 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x1 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu32/div/reg": {
		"runs=1 r0=0x2 r1=0x2 r2=0x7 r10=0x7ffff000",
		"runs=1 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu32/or/imm": {
		"runs=1 r0=0x1d r1=0x1d r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x1d r1=0x1d r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu32/or/reg": {
		"runs=1 r0=0x17 r1=0x17 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x80000011 r1=0x80000011 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu32/and/imm": {
		"runs=1 r0=0x1 r1=0x1 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x1 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu32/and/reg": {
		"runs=1 r0=0x1 r1=0x1 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x11 r1=0x11 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu32/lsh/imm": {
		"runs=1 r0=0x22000 r1=0x22000 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x22000 r1=0x22000 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu32/lsh/reg": {
		"runs=1 r0=0x880 r1=0x880 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x220000 r1=0x220000 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu32/rsh/imm": {
		"runs=1 r2=0x7 r10=0x7ffff000",
		"runs=1 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu32/rsh/reg": {
		"runs=1 r2=0x7 r10=0x7ffff000",
		"runs=1 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu32/mod/imm": {
		"runs=1 r0=0x4 r1=0x4 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x4 r1=0x4 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu32/mod/reg": {
		"runs=1 r0=0x3 r1=0x3 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x11 r1=0x11 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu32/xor/imm": {
		"runs=1 r0=0x1c r1=0x1c r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x1c r1=0x1c r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu32/xor/reg": {
		"runs=1 r0=0x16 r1=0x16 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x80000000 r1=0x80000000 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu32/mov/imm": {
		"runs=1 r0=0xd r1=0xd r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0xd r1=0xd r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu32/mov/reg": {
		"runs=1 r0=0x7 r1=0x7 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x80000011 r1=0x80000011 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu32/arsh/imm": {
		"runs=1 r2=0x7 r10=0x7ffff000",
		"runs=1 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu32/arsh/reg": {
		"runs=1 r2=0x7 r10=0x7ffff000",
		"runs=1 r2=0xfffffff080000011 r10=0x7ffff000",
	},
	"alu32/neg": {
		"runs=1 r0=0x7fffffef r1=0x7fffffef r10=0x7ffff000",
		"runs=1 r0=0xfffffff9 r1=0xfffffff9 r10=0x7ffff000",
	},
	"jmp/jeq/imm": {
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp/jeq/reg": {
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp/jgt/imm": {
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp/jgt/reg": {
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp/jge/imm": {
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp/jge/reg": {
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp/jset/imm": {
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp/jset/reg": {
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp/jne/imm": {
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp/jne/reg": {
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp/jsgt/imm": {
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp/jsgt/reg": {
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp/jsge/imm": {
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp/jsge/reg": {
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp/jlt/imm": {
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp/jlt/reg": {
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp/jle/imm": {
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp/jle/reg": {
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp/jslt/imm": {
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp/jslt/reg": {
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp/jsle/imm": {
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp/jsle/reg": {
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp32/jeq/imm": {
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp32/jeq/reg": {
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp32/jgt/imm": {
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp32/jgt/reg": {
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp32/jge/imm": {
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp32/jge/reg": {
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp32/jset/imm": {
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp32/jset/reg": {
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp32/jne/imm": {
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp32/jne/reg": {
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp32/jsgt/imm": {
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp32/jsgt/reg": {
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp32/jsge/imm": {
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp32/jsge/reg": {
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp32/jlt/imm": {
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp32/jlt/reg": {
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp32/jle/imm": {
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp32/jle/reg": {
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp32/jslt/imm": {
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp32/jslt/reg": {
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp32/jsle/imm": {
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"jmp32/jsle/reg": {
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0x7 r10=0x7ffff000",
		"runs=1 r0=0x1 r1=0x7 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xfffffff080000011 r2=0xfffffff080000011 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0xffffffff r2=0x100000001 r10=0x7ffff000",
		"runs=1 r0=0x2 r1=0x80000000 r2=0x5 r10=0x7ffff000",
	},
	"ja": {
		"runs=1 r0=0x2 r10=0x7ffff000",
	},
	"lddw": {
		"runs=1 r0=0x7eadbeefffffffff r10=0x7ffff000",
	},
	"mem/fp/b": {
		"runs=1 r0=0x10f r1=0xfffffff080000011 r3=0xfe r10=0x7ffff000",
	},
	"mem/dyn/b": {
		"runs=1 r0=0x11 r1=0xfffffff080000011 r2=0x7fffefc0 r10=0x7ffff000",
	},
	"mem/fp/h": {
		"runs=1 r0=0x1000f r1=0xfffffff080000011 r3=0xfffe r10=0x7ffff000",
	},
	"mem/dyn/h": {
		"runs=1 r0=0x11 r1=0xfffffff080000011 r2=0x7fffefc0 r10=0x7ffff000",
	},
	"mem/fp/w": {
		"runs=1 r0=0x18000000f r1=0xfffffff080000011 r3=0xfffffffe r10=0x7ffff000",
	},
	"mem/dyn/w": {
		"runs=1 r0=0x80000011 r1=0xfffffff080000011 r2=0x7fffefc0 r10=0x7ffff000",
	},
	"mem/fp/dw": {
		"runs=1 r0=0xfffffff08000000f r1=0xfffffff080000011 r3=0xfffffffffffffffe r10=0x7ffff000",
	},
	"mem/dyn/dw": {
		"runs=1 r0=0xfffffff080000011 r1=0xfffffff080000011 r2=0x7fffefc0 r10=0x7ffff000",
	},
	"call": {
		"runs=1 r0=0x7f r1=0xdeadbeefdeadbeef r2=0xdeadbeefdeadbeef r3=0xdeadbeefdeadbeef r4=0xdeadbeefdeadbeef r5=0xdeadbeefdeadbeef r10=0x7ffff000 calls=[42]",
	},
}
var helperIdiomPins = map[string][]string{
	"mapUpdateLookup": {
		"runs=1 r0=0x1 r1=0xdeadbeefdeadbeef r2=0xdeadbeefdeadbeef r3=0xdeadbeefdeadbeef r4=0xdeadbeefdeadbeef r5=0xdeadbeefdeadbeef r10=0x7ffff000 map=[{3 99}]",
		"runs=1 r0=0x1 r1=0xdeadbeefdeadbeef r2=0xdeadbeefdeadbeef r3=0xdeadbeefdeadbeef r4=0xdeadbeefdeadbeef r5=0xdeadbeefdeadbeef r10=0x7ffff000 map=[{0 0}]",
	},
	"captureShaped": {
		"runs=1 r1=0x1 r2=0x11 r6=0x12 r10=0x7ffff000",
		"runs=1 r1=0x2 r2=0x11 r10=0x7ffff000",
	},
	"ktimeAndPrintk": {
		"runs=1 r0=0xbb8 r1=0xdeadbeefdeadbeef r2=0xdeadbeefdeadbeef r3=0xdeadbeefdeadbeef r4=0xdeadbeefdeadbeef r5=0xdeadbeefdeadbeef r6=0x3e8 r10=0x7ffff000 ticks=2",
	},
	"kfuncRegArg": {
		"runs=1 r0=0x31 r1=0xdeadbeefdeadbeef r2=0xdeadbeefdeadbeef r3=0xdeadbeefdeadbeef r4=0xdeadbeefdeadbeef r5=0xdeadbeefdeadbeef r6=0x10 r10=0x7ffff000 calls=[16]",
	},
}
